(* Workload runner of the benchmark: runs one workload and prints its
   raw report (latencies, counters, set-up times, check outcomes) as
   one JSON line.  [run.py] builds this program, calls it and turns the
   report into metrics.

   Usage: bench.exe --workload compile|validate|serve --seed N
            --seconds S --trace 0|1 [--exe PARINLINE] [--workdir DIR] *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and exe = ref "" and workdir = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "compile | validate | serve");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "length of one timed window");
      ("--trace", Arg.Set_int trace, "1 adds a traced window");
      ("--exe", Arg.Set_string exe, "parinline executable (serve)");
      ("--workdir", Arg.Set_string workdir, "scratch directory (serve)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let seed = !seed and seconds = !seconds and trace = !trace = 1 in
  let doc =
    match !workload with
    | "compile" -> Wl_compile.run ~seed ~seconds ~trace
    | "validate" -> Wl_validate.run ~seed ~seconds ~trace
    | "serve" -> Wl_serve.run ~seed ~seconds ~trace ~exe:!exe ~workdir:!workdir
    | w ->
        prerr_endline ("bench.exe: unknown workload " ^ w);
        exit 2
  in
  print_endline (Frontend.Json.to_string doc)
