(* validate: a closed loop of [Checker.Oracle.validate ~threads:2] over
   a fixed list of compiled (program, configuration) points.  One round
   is the list in a seed-drawn order; the points are compiled in set-up.

   The list has 14 points: ten light ones (0.04-0.3 s per oracle op on
   a 2-core host) and four medium ones (0.55-0.9 s), so a 30 s window
   holds about eight rounds.  With 14 points the 75th percentile of k
   rounds falls in the middle of the k copies of the 11th-cheapest
   point, the cheapest medium one, for every k: inside one op class and
   away from its edges. *)

open Pb

let points =
  let c = Pipeline.Conventional and n = Pipeline.No_inlining in
  let a = Pipeline.Annotation_based and d = Pipeline.Demand in
  [
    ("ADM", c);
    ("FLO52Q", c);
    ("OCEAN", a);
    ("MG3D", c);
    ("QCD", n);
    ("QCD", c);
    ("QCD", a);
    ("QCD", d);
    ("SPEC77", n);
    ("SPEC77", c);
    ("SPEC77", a);
    ("SPEC77", d);
    ("TRFD", n);
    ("TRFD", c);
  ]

type point = { entry : entry; mode : Pipeline.mode; result : Pipeline.result }

let name p = p.entry.bench.name ^ "/" ^ mode_slug p.mode

(* Set-up: the corpus of the listed programs, then every point compiled
   once. *)
let setup rng =
  let entries = corpus ~names:(List.map fst points) rng in
  List.map
    (fun (bench, mode) ->
      let entry =
        List.find (fun e -> String.equal e.bench.Perfect.Bench_def.name bench) entries
      in
      Dependence.Memo.reset ();
      match (Perfect.Driver.run_task entry.bench mode).tr_result with
      | Some result -> { entry; mode; result }
      | None ->
          failwith (Printf.sprintf "%s/%s did not compile" bench (mode_slug mode)))
    points

let run ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let setups =
    List.init (setup_reps ~trace) (fun _ -> timed (fun () -> setup rng))
  in
  let pts = Array.of_list (fst (List.nth setups (List.length setups - 1))) in
  let t = tally () in
  let bad : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let ops_of : (string, int) Hashtbl.t = Hashtbl.create 16 in
  (* one op, on the clock: the oracle at 2 domains *)
  let op p =
    timed (fun () -> Checker.Oracle.validate ~threads:2 p.result.res_program)
  in
  (* its check, off the clock: the verdict must be v_ok *)
  let check p (v : Checker.Oracle.verdict) =
    t.attempted <- t.attempted + 1;
    bump ops_of (name p) 1;
    if not v.v_ok then begin
      bump bad (name p) 1;
      note t (name p ^ ": verdict " ^ Checker.Oracle.verdict_summary v)
    end
  in
  let order _ =
    let a = Array.copy pts in
    shuffle rng a;
    a
  in
  let lat = ref [] in
  let elapsed =
    closed_loop ~seconds ~prepare:order
      ~run:(fun p -> (p, op p))
      ~check:(fun (p, (v, ns)) ->
        check p v;
        lat := ns :: !lat)
  in
  let untraced = window ~elapsed_ns:elapsed (List.rev !lat) in
  let traced =
    if not trace then None
    else begin
      (* traced op: the oracle under an installed profile with the
         metrics registry armed; then, off the clock, the same program
         untraced at 1 and at 2 domains, so the oracle's own cost can be
         told from the interpreter's *)
      let reg = Metrics.create () in
      let tlat = ref [] in
      let ser = ref 0 and par = ref 0 and alloc = ref 0 in
      let iters = ref 0 and conflicts = ref 0 in
      let traced_op p =
        let a0 = alloc_bytes () in
        let r =
          Metrics.with_metrics reg (fun () ->
              Core.Prof.with_profiling (Core.Prof.create ()) (fun () -> op p))
        in
        (r, alloc_bytes () - a0)
      in
      let elapsed =
        closed_loop ~seconds ~prepare:order
          ~run:(fun p -> (p, traced_op p))
          ~check:(fun (p, ((v, ns), a)) ->
            check p v;
            alloc := !alloc + a;
            tlat := ns :: !tlat;
            iters := !iters + v.Checker.Oracle.v_iterations;
            conflicts := !conflicts + List.length v.v_races;
            let prog = p.result.res_program in
            let run threads =
              snd
                (timed (fun () ->
                     try ignore (Runtime.Interp.run_program ~threads prog)
                     with _ -> ()))
            in
            ser := !ser + run 1;
            par := !par + run 2)
      in
      let snap = Metrics.snapshot reg in
      let lats = List.rev !tlat in
      Some
        (window ~elapsed_ns:elapsed lats
           ~extra:
             [
               ( "layers",
                 Json.Obj
                   [
                     ("ops", Json.Int (List.length lats));
                     ("op_ns", Json.Int (List.fold_left ( + ) 0 lats));
                     ("interp_serial_ns", Json.Int !ser);
                     ("interp_parallel_ns", Json.Int !par);
                     ( "pool_wait_ns",
                       Json.Int
                         (hist_sum_ns snap "parinline_pool_queue_wait_seconds") );
                     ( "pool_exec_ns",
                       Json.Int
                         (hist_sum_ns snap "parinline_pool_chunk_exec_seconds") );
                     ("iterations_traced", Json.Int !iters);
                     ("conflicts", Json.Int !conflicts);
                     ("alloc_bytes", Json.Int !alloc);
                   ] );
             ])
    end
  in
  (* post-window: each point's program against the unoptimized original *)
  let par = ref 0 and lines = ref 0 in
  Array.iter
    (fun p ->
      let count tbl = Option.value ~default:0 (Hashtbl.find_opt tbl (name p)) in
      let r = p.result in
      let mine, _, _ = Pipeline.table2_counts ~baseline:r r in
      par := !par + mine;
      lines := !lines + r.res_code_size;
      match check_semantics ~reference:p.entry.reference r.res_program with
      | Ok () -> t.failed <- t.failed + count bad
      | Error m ->
          note t (name p ^ ": " ^ m);
          t.failed <- t.failed + count ops_of)
    pts;
  report ~workload:"validate" ~seed ~trace ~domains:2
    ~setup_ns:(List.map snd setups) ~peak_kb:(peak_rss_kb "self") ~tally:t
    ~parallel_loops:!par ~code_lines:!lines ~untraced ~traced
