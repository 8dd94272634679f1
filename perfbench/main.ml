(* Benchmark entry point.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the workload and prints its end-to-end metrics;
   --trace 1 runs the traced per-layer sweep ({!Layers}) and prints the
   per-layer metrics. The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}; the line before it holds the
   diagnostics (machine and calibration descriptor, raw timings, sample
   counts), which are also written under .perfbench_out/. Exits 1 when a
   correctness check fails. *)

open Perfbench

let out_dir = ".perfbench_out"

let write_file name text =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let oc = open_out (Filename.concat out_dir name) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let descriptor ~workload ~seed ~seconds ~trace refs =
  Json.
    [
      ("workload", Str workload);
      ("seed", Int seed);
      ("seconds", Num seconds);
      ("trace", Bool trace);
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("domains", Int 1);
      ("ocaml", Str Sys.ocaml_version);
      ("flambda", Bool Build_info.flambda);
      ("r_nominal_ms", Num Calib.r_nominal_ms);
      ("ref_ms_p50", Num (Stats.median refs));
      ("ref_ms_min", Num (List.fold_left Float.min infinity refs));
      ("ref_ms_max", Num (List.fold_left Float.max 0.0 refs));
      ("ref_count", Int (List.length refs));
    ]

let metric (name, value, unit) = (name, Json.(Obj [ ("value", Num value); ("unit", Str unit) ]))

(* Median and the highest percentile with at least ten samples beyond it,
   with the sample count. *)
let summary xs =
  let a = Stats.sorted xs in
  let n = Array.length a in
  Json.Obj
    ([ ("n", Json.Int n); ("p50", Json.Num (Stats.percentile a 50.0)) ]
    @
    match Stats.tail_percentile n with
    | Some q ->
        [ ("tail_q", Json.Num q); ("tail", Json.Num (Stats.percentile a q)) ]
    | None -> [])

let end_to_end ~workload ~seed ~seconds =
  let run = List.assoc workload Workloads.all in
  let o = run ~seed ~seconds in
  let setup_cal = List.map (fun (s : Calib.sample) -> s.cal_ms /. 1e3) o.Workloads.setups in
  let setup_raw = List.map (fun (s : Calib.sample) -> s.raw_ms /. 1e3) o.setups in
  let metrics =
    [
      ("setup_s", Stats.median setup_cal, "s");
      ("latency_ms_p50", Stats.median o.samples, "ms");
      ("peak_heap_mb", o.heap_mb, "MB");
    ]
  in
  let diag =
    descriptor ~workload ~seed ~seconds ~trace:false o.refs
    @ Json.
        [
          ( "samples",
            Obj
              [
                ("setup_s", Int (List.length setup_cal));
                ("latency_ms_p50", Int (List.length o.samples));
                ("peak_heap_mb", Int 1);
              ] );
          ("bench.setup_s", summary setup_cal);
          ("bench.setup_raw_s", summary setup_raw);
          ("bench.latency_ms", summary o.samples);
          (Printf.sprintf "bench.%s.raw_ms" workload, summary o.raw);
          (Printf.sprintf "bench.%s.raw_ms_p50" workload, Num (Stats.median o.raw));
          ("workload", Obj o.diag);
        ]
  in
  (metrics, o.attempted, o.failures, diag)

let traced ~workload ~seed ~seconds =
  let r = Layers.sweep ~workload ~seed in
  write_file (Printf.sprintf "trace-%s-seed%d.json" workload seed) r.chrome;
  ( r.metrics,
    r.attempted,
    r.failures,
    descriptor ~workload ~seed ~seconds ~trace:true r.refs @ r.diag )

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME encoder | serve | recipe");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem_assoc !workload Workloads.all) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let metrics, attempted, failures, diag =
    (if !trace = 1 then traced else end_to_end)
      ~workload:!workload ~seed:!seed ~seconds:!seconds
  in
  let diag = Json.Obj (diag @ [ ("failures", Json.Arr (List.map (fun f -> Json.Str f) failures)) ]) in
  write_file
    (Printf.sprintf "%s-seed%d-trace%d.json" !workload !seed !trace)
    (Json.to_string diag ^ "\n");
  List.iter prerr_endline failures;
  print_endline (Json.to_string (Json.Obj [ ("diagnostics", diag) ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failures = []));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int (List.length failures));
            ("metrics", Json.Obj (List.map metric metrics));
          ]));
  exit (if failures = [] then 0 else 1)
