(* serve: the shipped [parinline serve --socket] daemon in its own
   process, driven by one client connection running a closed loop of
   NDJSON analyze/compile requests.

   Read units are the 96 (program, configuration, op) requests over the
   seed-edited corpus.  One round replays them with a fixed skewed
   popularity (the unit of popularity rank r is read max(1, 24/(r+1))
   times, 156 reads) and adds 12 writes: comment-only edits, one per
   program, each a new unit that misses the cache, is computed with a
   warm memo, and once the cache is full evicts the oldest edit.  The
   cap of 128 units keeps every read unit resident (at most 95 other
   read units and 24 writes fall between two reads of a unit) while the
   distinct units of a run far exceed it. *)

open Pb
module Serve = Server.Serve

let cap = 128
let ops = [ "analyze"; "compile" ]

type unit_ = {
  u_name : string;
  u_line : string;  (** the request line, newline included *)
  u_expect : string;  (** the one-shot in-process result body *)
}

(* The one-shot computation of a request, exactly as the daemon's miss
   path computes it, in this process. *)
let body_of ~op ~mode ~source ~annot =
  Serve.reset_gensyms ();
  Json.to_string
    (Serve.compute_body ~max_errors:Frontend.Diag.default_max_errors ~op ~mode
       ~growth_budget:Planner.default_growth_budget
       ~max_rounds:Planner.default_max_rounds ~source ~annot)

let line_of ~op ~mode ~source ~annot =
  Json.to_string
    (Serve.request ~op ~mode:(mode_slug mode) ~source ~annot ())
  ^ "\n"

(* ---- the daemon process ---- *)

type daemon = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  mutable next_id : int;
}

let rec connect path tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error (_, _, _) when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      connect path (tries - 1)

let start ~exe ~workdir ?log () =
  let sock = Filename.concat workdir (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  let err =
    Unix.openfile
      (Filename.concat workdir "daemon.err")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [ exe; "serve"; "--socket"; sock; "--jobs"; "1"; "--conn-jobs"; "0";
      "--max-cache-units"; string_of_int cap ]
    @ match log with None -> [] | Some f -> [ "--log"; f; "--log-level"; "info" ]
  in
  let pid = Unix.create_process exe (Array.of_list args) null err err in
  Unix.close null;
  Unix.close err;
  let fd = connect sock 1000 in
  {
    pid;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    next_id = 1;
  }

let call d line =
  output_string d.oc line;
  flush d.oc;
  input_line d.ic

let control d op =
  let id = d.next_id in
  d.next_id <- id + 1;
  match Json.parse (call d (Json.to_string (Serve.request ~id ~op ~mode:"" ()) ^ "\n")) with
  | Ok j -> j
  | Error m -> failwith ("unparseable " ^ op ^ " response: " ^ m)

let stop d =
  ignore (control d "shutdown");
  close_out_noerr d.oc;
  ignore (Unix.waitpid [] d.pid)

(* ---- response checks ---- *)

let find_from s i needle =
  let n = String.length needle and l = String.length s in
  let rec go i =
    if i + n > l then None
    else if String.sub s i n = needle then Some (i + n)
    else go (i + 1)
  in
  go i

(** [(ok, request_id, result body)] of a work response. *)
let parse_response resp =
  let ok = find_from resp 0 "\"ok\":true" <> None in
  let rid =
    match find_from resp 0 "\"request_id\":\"" with
    | None -> ""
    | Some i -> String.sub resp i (String.index_from resp i '"' - i)
  in
  let body =
    match find_from resp 0 "\"result\":" with
    | None -> ""
    | Some i -> String.sub resp i (String.length resp - i - 1)
  in
  (ok, rid, body)

(* ---- workload ---- *)

type req = Read of unit_ | Write of unit_ * Perfect.Bench_def.t * Pipeline.mode * string

let run ~seed ~seconds ~trace ~exe ~workdir =
  let rng = Random.State.make [| seed |] in
  let entries = corpus rng in
  (* read units and their expected bodies (one-shot, in process) *)
  let units =
    List.concat_map
      (fun e ->
        let b = e.bench in
        List.concat_map
          (fun mode ->
            List.map
              (fun op ->
                {
                  u_name = Printf.sprintf "%s/%s/%s" b.name (mode_slug mode) op;
                  u_line = line_of ~op ~mode ~source:b.source ~annot:b.annotations;
                  u_expect =
                    body_of ~op ~mode ~source:b.source ~annot:b.annotations;
                })
              ops)
          configs)
      entries
    |> Array.of_list
  in
  (* fixed popularity: a seed-independent permutation assigns ranks *)
  let ranked = Array.copy units in
  shuffle (Random.State.make [| 0 |]) ranked;
  let reads =
    List.concat
      (List.mapi
         (fun r u -> List.init (max 1 (24 / (r + 1))) (fun _ -> Read u))
         (Array.to_list ranked))
  in
  (* writes: program i edited under configuration i mod 4, op by i / 4 *)
  let writes =
    List.mapi
      (fun i e ->
        let mode = List.nth configs (i mod 4) in
        let op = List.nth ops (i / 4 mod 2) in
        let u =
          List.find
            (fun u ->
              String.equal u.u_name
                (Printf.sprintf "%s/%s/%s" e.bench.name (mode_slug mode) op))
            (Array.to_list units)
        in
        Write (u, e.bench, mode, op))
      entries
  in
  let round_reqs = Array.of_list (reads @ writes) in
  let t = tally () in
  let check name ~expect resp =
    let ok, rid, body = parse_response resp in
    if not ok then note t (name ^ ": request failed")
    else if not (String.equal body expect) then
      note t (name ^ ": result body differs from the one-shot computation");
    (ok && String.equal body expect, rid)
  in
  let cold d =
    Array.iter
      (fun u ->
        let ok, _ = check u.u_name ~expect:u.u_expect (call d u.u_line) in
        if not ok then raise (Failure (u.u_name ^ ": cold pass failed")))
      units
  in
  let boot ?log () =
    let d = start ~exe ~workdir ?log () in
    cold d;
    d
  in
  (* set-up: daemon start plus cold pass, repeated; the last one serves *)
  let setups =
    List.init (setup_reps ~trace) (fun i ->
        let d, ns = timed (fun () -> boot ()) in
        if i < setup_reps ~trace - 1 then begin
          stop d;
          (None, ns)
        end
        else (Some d, ns))
  in
  let d = Option.get (fst (List.nth setups (List.length setups - 1))) in
  (* one closed-loop window; [on_resp] sees (request id, rtt).  A
     round's request lines (the shuffle, and each write's fresh edit
     encoded) are made before it and each response is checked as it
     arrives, both off the clock: only the round trips are timed. *)
  let drive d ~on_resp =
    let lat = ref [] in
    let prepare _ =
      let reqs = Array.copy round_reqs in
      shuffle rng reqs;
      Array.map
        (function
          | Read u -> (u.u_name, u.u_line, u.u_expect)
          | Write (u, b, mode, op) ->
              ( u.u_name ^ "+edit",
                line_of ~op ~mode ~source:(comment_edit rng b.source)
                  ~annot:b.annotations,
                u.u_expect ))
        reqs
    in
    let run (name, line, expect) = (name, expect, timed (fun () -> call d line)) in
    let check (name, expect, (resp, ns)) =
      t.attempted <- t.attempted + 1;
      lat := ns :: !lat;
      let ok, rid = check name ~expect resp in
      if not ok then t.failed <- t.failed + 1;
      on_resp rid ns
    in
    let elapsed = closed_loop ~seconds ~prepare ~run ~check in
    (elapsed, List.rev !lat)
  in
  let elapsed, lat = drive d ~on_resp:(fun _ _ -> ()) in
  let peak_kb = peak_rss_kb (string_of_int d.pid) in
  stop d;
  let untraced = window ~elapsed_ns:elapsed lat in
  let traced =
    if not trace then None
    else begin
      (* traced window: a fresh daemon writing its request log, scraped
         for stats and metrics around the window *)
      let log = Filename.concat workdir (Printf.sprintf "req%d.log" (Unix.getpid ())) in
      (try Sys.remove log with Sys_error _ -> ());
      let d = boot ~log () in
      let stats0 = control d "stats" and metrics0 = control d "metrics" in
      let rtt = Hashtbl.create 4096 in
      let a0 = alloc_bytes () in
      let elapsed, tlat = drive d ~on_resp:(fun rid ns -> Hashtbl.replace rtt rid ns) in
      let alloc = alloc_bytes () - a0 in
      let stats1 = control d "stats" and metrics1 = control d "metrics" in
      stop d;
      (* daemon-side latency per request, from its request log *)
      let hit = ref [] and miss = ref [] and transport = ref [] in
      let ic = open_in log in
      (try
         while true do
           match Json.parse (input_line ic) with
           | Ok j -> (
               let rid = Json.to_str (Json.member "request_id" j) in
               match Hashtbl.find_opt rtt rid with
               | None -> ()
               | Some ns ->
                   let dns =
                     int_of_float
                       (Json.to_float (Json.member "latency_ms" j) *. 1e6)
                   in
                   (match Json.to_str (Json.member "cache" j) with
                   | "hit" -> hit := dns :: !hit
                   | _ -> miss := dns :: !miss);
                   transport := (ns - dns) :: !transport)
           | Error _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      Sys.remove log;
      let strip j = Json.member "metrics" j in
      Some
        (window ~elapsed_ns:elapsed tlat
           ~extra:
             [
               ( "layers",
                 Json.Obj
                   [
                     ("ops", Json.Int (List.length tlat));
                     ("op_ns", Json.Int (List.fold_left ( + ) 0 tlat));
                     ("daemon_hit_ns", ints !hit);
                     ("daemon_miss_ns", ints !miss);
                     ("transport_ns", ints !transport);
                     ("alloc_bytes", Json.Int alloc);
                     ("stats0", stats0);
                     ("stats1", stats1);
                     ("metrics0", strip metrics0);
                     ("metrics1", strip metrics1);
                   ] );
             ])
    end
  in
  (* Table II accounting over the 48 distinct (program, configuration)
     points the read units cover, from their analyze bodies *)
  let par = ref 0 and lines = ref 0 in
  Array.iter
    (fun u ->
      if Filename.basename u.u_name = "analyze" then
        match Json.parse u.u_expect with
        | Ok j ->
            par := !par + Json.to_int (Json.member "marked" j);
            lines := !lines + Json.to_int (Json.member "code_size" j)
        | Error _ -> ())
    units;
  report ~workload:"serve" ~seed ~trace ~domains:2
    ~setup_ns:(List.map snd setups) ~peak_kb ~tally:t ~parallel_loops:!par
    ~code_lines:!lines ~untraced ~traced
