(* compile: a closed loop of one-shot compilations of the 12 programs
   under all four configurations through [Perfect.Driver.run_task], the
   dependence memo cleared before each.  One round is the 48 points in a
   seed-drawn order. *)

open Pb
module Span = Frontend.Span
module Prof = Core.Prof

type point = { entry : entry; mode : Pipeline.mode }

let name p = p.entry.bench.name ^ "/" ^ mode_slug p.mode

(* First result per point, kept for the post-window checks; later
   compilations of the point must print byte-identical programs. *)
type first = { result : Pipeline.result; text : string }

(* Per-op span fold of a traced window: the driver task span, and each
   dependence-miss span attributed to the pipeline phase it ran under. *)
type acc = {
  mutable ops : int;
  mutable op_ns : int;
  mutable task_ns : int;
  passes : (string, int) Hashtbl.t;  (** Prof pass ns by pass name *)
  mutable dep_ns : int;
  dep_by_phase : (string, int) Hashtbl.t;
  mutable demand_task_ns : int;
  mutable demand_pass_ns : int;
  mutable stmts_normalized : int;
  mutable dep_tests : int;
  mutable dep_hits : int;
  mutable reverse_matched : int;
  mutable alloc_bytes : int;
}

let acc () =
  {
    ops = 0;
    op_ns = 0;
    task_ns = 0;
    passes = Hashtbl.create 8;
    dep_ns = 0;
    dep_by_phase = Hashtbl.create 8;
    demand_task_ns = 0;
    demand_pass_ns = 0;
    stmts_normalized = 0;
    dep_tests = 0;
    dep_hits = 0;
    reverse_matched = 0;
    alloc_bytes = 0;
  }

let fold_spans a (sink : Span.sink) =
  (* stack of open spans: (name, cat, start) *)
  let stack = ref [] in
  List.iter
    (fun (e : Span.event) ->
      match e.e_ph with
      | Span.B -> stack := (e.e_name, e.e_cat, e.e_ns) :: !stack
      | Span.I -> ()
      | Span.E -> (
          match !stack with
          | [] -> ()
          | (name, cat, t0) :: rest ->
              stack := rest;
              let d = Int64.to_int (Int64.sub e.e_ns t0) in
              if cat = "driver" then a.task_ns <- a.task_ns + d
              else if name = "dep-test" then begin
                a.dep_ns <- a.dep_ns + d;
                let phase =
                  List.find_map
                    (fun (n, c, _) -> if c = "pipeline" then Some n else None)
                    rest
                in
                bump a.dep_by_phase (Option.value ~default:"none" phase) d
              end))
    (Span.events sink)

let fold_task a (tr : Perfect.Driver.task_result) ~op_ns ~alloc =
  a.ops <- a.ops + 1;
  a.op_ns <- a.op_ns + op_ns;
  a.alloc_bytes <- a.alloc_bytes + alloc;
  let pass_ns = ref 0 in
  List.iter
    (fun (n, ms) ->
      let ns = int_of_float (ms *. 1e6) in
      pass_ns := !pass_ns + ns;
      bump a.passes n ns)
    (Prof.pass_ms tr.Perfect.Driver.tr_prof);
  let c = Prof.snapshot tr.tr_prof in
  a.stmts_normalized <- a.stmts_normalized + c.stmts_normalized;
  a.dep_tests <- a.dep_tests + c.dep_tests_run;
  a.dep_hits <- a.dep_hits + c.dep_cache_hits;
  a.reverse_matched <- a.reverse_matched + c.reverse_sites_matched;
  !pass_ns

let run ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  (* set-up: the corpus (seeded edits and reference outputs) *)
  let setups =
    List.init (setup_reps ~trace) (fun _ -> timed (fun () -> corpus rng))
  in
  let entries = fst (List.nth setups (List.length setups - 1)) in
  let points =
    Array.of_list
      (List.concat_map
         (fun entry -> List.map (fun mode -> { entry; mode }) configs)
         entries)
  in
  let firsts : (string, first) Hashtbl.t = Hashtbl.create 64 in
  let ops_of : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let bad_ops : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let t = tally () in
  let bad p why =
    bump bad_ops (name p) 1;
    note t (name p ^ ": " ^ why)
  in
  (* one op, on the clock: the compilation with the memo cleared *)
  let op ?span p =
    Dependence.Memo.reset ();
    let a0 = alloc_bytes () in
    let tr, ns =
      timed (fun () -> Perfect.Driver.run_task ?span p.entry.bench p.mode)
    in
    (tr, ns, alloc_bytes () - a0)
  in
  (* its check, off the clock: later compilations of a point must print
     byte-identically to the first *)
  let check p (tr : Perfect.Driver.task_result) =
    t.attempted <- t.attempted + 1;
    bump ops_of (name p) 1;
    match tr.tr_result with
    | None -> bad p "compilation crashed"
    | Some r -> (
        let text = Frontend.Pretty.program_to_string r.res_program in
        match Hashtbl.find_opt firsts (name p) with
        | None -> Hashtbl.replace firsts (name p) { result = r; text }
        | Some f when String.equal f.text text -> ()
        | Some _ -> bad p "output differs from its first compilation")
  in
  let order _ =
    let a = Array.copy points in
    shuffle rng a;
    a
  in
  let lat = ref [] in
  let elapsed =
    closed_loop ~seconds ~prepare:order
      ~run:(fun p -> (p, op p))
      ~check:(fun (p, (tr, ns, _)) ->
        check p tr;
        lat := ns :: !lat)
  in
  let untraced = window ~elapsed_ns:elapsed (List.rev !lat) in
  let traced =
    if not trace then None
    else begin
      let a = acc () in
      let reg = Metrics.create () in
      let tlat = ref [] in
      let elapsed =
        Metrics.with_metrics reg @@ fun () ->
        closed_loop ~seconds
          ~prepare:(fun k -> Array.map (fun p -> (p, Span.create ())) (order k))
          ~run:(fun (p, sink) -> (p, sink, op ~span:sink p))
          ~check:(fun (p, sink, (tr, ns, alloc)) ->
            check p tr;
            tlat := ns :: !tlat;
            let pass_ns = fold_task a tr ~op_ns:ns ~alloc in
            let task0 = a.task_ns in
            fold_spans a sink;
            if p.mode = Pipeline.Demand then begin
              a.demand_task_ns <- a.demand_task_ns + (a.task_ns - task0);
              a.demand_pass_ns <- a.demand_pass_ns + pass_ns
            end)
      in
      let snap = Metrics.snapshot reg in
      let tbl h =
        Json.Obj
          (List.sort compare
             (Hashtbl.fold (fun k v l -> (k, Json.Int v) :: l) h []))
      in
      Some
        (window ~elapsed_ns:elapsed (List.rev !tlat)
           ~extra:
             [
               ( "layers",
                 Json.Obj
                   [
                     ("ops", Json.Int a.ops);
                     ("op_ns", Json.Int a.op_ns);
                     ("task_ns", Json.Int a.task_ns);
                     ("pass_ns", tbl a.passes);
                     ("dep_miss_ns", Json.Int a.dep_ns);
                     ("dep_miss_ns_by_phase", tbl a.dep_by_phase);
                     ("demand_task_ns", Json.Int a.demand_task_ns);
                     ("demand_pass_ns", Json.Int a.demand_pass_ns);
                     ("stmts_normalized", Json.Int a.stmts_normalized);
                     ("dep_tests", Json.Int a.dep_tests);
                     ("dep_memo_hits", Json.Int a.dep_hits);
                     ("reverse_matched", Json.Int a.reverse_matched);
                     ( "inline_sites",
                       Json.Int (counter_sum snap "parinline_inline_sites_total")
                     );
                     ( "planner_rounds",
                       Json.Int (counter_sum snap "parinline_planner_rounds_total")
                     );
                     ( "planner_refusals",
                       Json.Int
                         (counter_sum snap "parinline_planner_refusals_total") );
                     ("alloc_bytes", Json.Int a.alloc_bytes);
                   ] );
             ])
    end
  in
  (* post-window checks, once per distinct point: semantics against the
     unoptimized original, and no loop lost by demand against none.  A
     point that fails one fails all its ops; otherwise only the ops that
     crashed or drifted count. *)
  let par = ref 0 and lines = ref 0 in
  Array.iter
    (fun p ->
      let count tbl = Option.value ~default:0 (Hashtbl.find_opt tbl (name p)) in
      let point_ok =
        match Hashtbl.find_opt firsts (name p) with
        | None -> false
        | Some f -> (
            let r = f.result in
            let mine, _, _ = Pipeline.table2_counts ~baseline:r r in
            par := !par + mine;
            lines := !lines + r.res_code_size;
            let sem =
              match check_semantics ~reference:p.entry.reference r.res_program with
              | Ok () -> true
              | Error m ->
                  note t (name p ^ ": " ^ m);
                  false
            in
            let kept =
              p.mode <> Pipeline.Demand
              ||
              match
                Hashtbl.find_opt firsts
                  (name { p with mode = Pipeline.No_inlining })
              with
              | None -> true
              | Some base ->
                  let _, loss, _ =
                    Pipeline.table2_counts ~baseline:base.result r
                  in
                  if loss > 0 then
                    note t
                      (Printf.sprintf
                         "%s: loses %d loop(s) no-inlining parallelizes"
                         (name p) loss);
                  loss = 0
            in
            sem && kept)
      in
      t.failed <- t.failed + if point_ok then count bad_ops else count ops_of)
    points;
  report ~workload:"compile" ~seed ~trace ~domains:2
    ~setup_ns:(List.map snd setups) ~peak_kb:(peak_rss_kb "self") ~tally:t
    ~parallel_loops:!par ~code_lines:!lines ~untraced ~traced
