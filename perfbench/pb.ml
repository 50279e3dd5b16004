(* Shared plumbing of the benchmark workloads: clocks, seeded input
   generation, the corpus and its reference outputs, process facts
   (peak RSS, cores), and the raw JSON report the Python front end
   turns into metrics.  All times cross into the report as integer
   nanoseconds, so no digit is lost to float formatting. *)

module Json = Frontend.Json
module Pipeline = Core.Pipeline

let now_ns () = Core.Prof.monotonic_ns ()
let since_ns t0 = Int64.to_int (Int64.sub (now_ns ()) t0)

(** [timed f] runs [f] and returns its result with the elapsed ns. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_ns t0)

let ints xs = Json.List (List.map (fun n -> Json.Int n) xs)

(** Add [v] to the count of [k] in [tbl]. *)
let bump tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

(** Fisher-Yates shuffle of [a] in place, driven by [rng]. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A line may carry a trailing comment when it is a plain statement: not
   blank, not already a comment line, and free of string literals and
   '!' (so the appended '!' cannot land inside a literal or after an
   existing comment).  A continuation line ending in '&' still ends in
   '&' once the lexer strips the comment. *)
let commentable line =
  let t = String.trim line in
  t <> ""
  && t.[0] <> '*'
  && t.[0] <> '!'
  && (not (String.contains t '\''))
  && not (String.contains t '!')

(** A comment-only edit of [source]: a trailing [! ...] comment with
    seed-drawn text on a seed-drawn statement line.  Line numbers and
    statements are untouched, so every analysis result must be too. *)
let comment_edit rng source =
  let lines = Array.of_list (String.split_on_char '\n' source) in
  let candidates =
    List.filter
      (fun i -> commentable lines.(i))
      (List.init (Array.length lines) Fun.id)
  in
  let i = List.nth candidates (Random.State.int rng (List.length candidates)) in
  let word () =
    String.init
      (1 + Random.State.int rng 8)
      (fun _ -> Char.chr (Char.code 'a' + Random.State.int rng 26))
  in
  lines.(i) <-
    lines.(i) ^ " ! " ^ String.concat " " (List.init 3 (fun _ -> word ()));
  String.concat "\n" (Array.to_list lines)

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

(** One benchmark program as the workloads see it: the seed-edited
    source the program under test receives, and what the unoptimized
    original prints under the interpreter (the reference every compiled
    variant must reproduce). *)
type entry = { bench : Perfect.Bench_def.t; reference : string }

let configs = Perfect.Driver.configs

let mode_slug = function
  | Pipeline.No_inlining -> "none"
  | Pipeline.Conventional -> "conventional"
  | Pipeline.Annotation_based -> "annotation"
  | Pipeline.Demand -> "demand"

(** Build the corpus for [names] (all twelve when [None]): one comment
    edit per program, then a serial reference run of each unedited
    original. *)
let corpus ?names rng : entry list =
  let benches =
    match names with
    | None -> Perfect.Suite.all
    | Some ns ->
        List.filter
          (fun (b : Perfect.Bench_def.t) -> List.mem b.name ns)
          Perfect.Suite.all
  in
  List.map
    (fun (b : Perfect.Bench_def.t) ->
      let reference =
        Runtime.Interp.run_program ~threads:1 (Perfect.Bench_def.parse b)
      in
      { bench = { b with source = comment_edit rng b.source }; reference })
    benches

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(** The semantic check of one compiled program: pretty-print it, parse
    the text back, and run it serially and at 2 domains; both runs must
    print what the unoptimized original printed.  [Error] names the
    first run that disagreed or failed. *)
let check_semantics ~reference (program : Frontend.Ast.program) :
    (unit, string) result =
  match
    Frontend.Resolve.parse (Frontend.Pretty.program_to_string program)
  with
  | exception e -> Error ("re-parse failed: " ^ Printexc.to_string e)
  | reparsed ->
      let run threads =
        match Runtime.Interp.run_program ~threads reparsed with
        | out when Checker.Oracle.outputs_equal reference out -> None
        | _ -> Some (Printf.sprintf "output differs at %d domain(s)" threads)
        | exception e ->
            Some
              (Printf.sprintf "run at %d domain(s) failed: %s" threads
                 (Printexc.to_string e))
      in
      (match run 1 with
      | Some m -> Error m
      | None -> ( match run 2 with Some m -> Error m | None -> Ok ()))

(** Failure bookkeeping: every timed op is attempted once; a failed
    check marks it failed.  The first few distinct reasons are kept for
    the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

let tally () = { attempted = 0; failed = 0; reasons = [] }

let note t reason =
  if List.length t.reasons < 10 && not (List.mem reason t.reasons) then
    t.reasons <- t.reasons @ [ reason ]

(* ------------------------------------------------------------------ *)
(* Process facts                                                       *)
(* ------------------------------------------------------------------ *)

(** [VmHWM] of [/proc/PID/status] in kB ([pid = "self"] for this
    process); 0 when unreadable. *)
let peak_rss_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

let alloc_bytes () = int_of_float (Gc.allocated_bytes ())

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)
(* ------------------------------------------------------------------ *)

(** Run whole rounds until [seconds] of op time have passed.
    [prepare k] draws the inputs of round [k], one per op; [run] performs
    one op; [check] checks and records its output before the next op
    starts.  Only [run] is on the clock: the elapsed time returned (the
    window's length, which rates divide by) sums the [run] calls, so the
    benchmark's own input generation and checks never count as the
    program's time.  The loop never cuts a round short, so every run
    attempts whole rounds of the same operations. *)
let closed_loop ~seconds ~prepare ~run ~check =
  let limit = int_of_float (seconds *. 1e9) in
  let clock = ref 0 and k = ref 0 in
  while !clock < limit do
    Array.iter
      (fun input ->
        let t0 = now_ns () in
        let out = run input in
        clock := !clock + since_ns t0;
        check out)
      (prepare !k);
    incr k
  done;
  !clock

(** The set-up repetitions of a [--trace 0] run (the reported set-up
    time is their median, which also skips the first, cold-heap one);
    one for a traced run, which does not report set-up time. *)
let setup_reps ~trace = if trace then 1 else 7

(** Raw report: everything the front end needs, times in ns. *)
let report ~workload ~seed ~trace ~domains ~setup_ns ~peak_kb ~(tally : tally)
    ~parallel_loops ~code_lines ~untraced ~traced =
  Json.Obj
    ([
       ("workload", Json.Str workload);
       ("seed", Json.Int seed);
       ("trace", Json.Bool trace);
       ("host_cores", Json.Int (Domain.recommended_domain_count ()));
       ("domains_used", Json.Int domains);
       ("setup_ns", ints setup_ns);
       ("peak_rss_kb", Json.Int peak_kb);
       ("attempted", Json.Int tally.attempted);
       ("failed", Json.Int tally.failed);
       ("failures", Json.List (List.map (fun s -> Json.Str s) tally.reasons));
       ("parallel_loops", Json.Int parallel_loops);
       ("code_lines", Json.Int code_lines);
       ("untraced", untraced);
     ]
    @ match traced with None -> [] | Some t -> [ ("traced", t) ])

(** A window's op latencies plus its elapsed time. *)
let window ?(extra = []) ~elapsed_ns lat_ns =
  Json.Obj
    ([ ("elapsed_ns", Json.Int elapsed_ns); ("lat_ns", ints lat_ns) ] @ extra)

(* ------------------------------------------------------------------ *)
(* Metrics-registry readers (for traced windows)                       *)
(* ------------------------------------------------------------------ *)

module Metrics = Frontend.Metrics

(** Sum of every counter of [family] in [snap] (all label values). *)
let counter_sum (snap : Metrics.snapshot) family =
  List.fold_left
    (fun acc ((m : Metrics.meta), s) ->
      match s with
      | Metrics.S_counter n when String.equal m.m_family family -> acc + n
      | _ -> acc)
    0 snap

(** Total observed ns of every histogram of [family] in [snap]. *)
let hist_sum_ns (snap : Metrics.snapshot) family =
  List.fold_left
    (fun acc ((m : Metrics.meta), s) ->
      match s with
      | Metrics.S_hist h when String.equal m.m_family family ->
          acc + h.Metrics.hs_sum_ns
      | _ -> acc)
    0 snap
