(* Tests of the benchmark's own helpers: the tail-percentile rule, the
   calibration arithmetic, and the faithfulness of the virtual-time serve
   replay to [Serve.Loadgen.run]. *)

open Perfbench

(* The reported tail has at least ten samples beyond it, and it is the
   highest percentile of the ladder that does. *)
let test_tail_rule () =
  for n = 1 to 3000 do
    let a = Array.init n float_of_int in
    let beyond v = Array.fold_left (fun c x -> if x > v then c + 1 else c) 0 a in
    match Stats.tail_percentile n with
    | None ->
        Alcotest.(check bool)
          (Printf.sprintf "n=%d: even the median lacks ten beyond" n)
          true
          (beyond (Stats.percentile a 50.0) < 10)
    | Some q ->
        let v = Stats.percentile a q in
        if beyond v < 10 then Alcotest.failf "n=%d q=%g: %d beyond" n q (beyond v);
        List.iter
          (fun q' ->
            if q' > q && beyond (Stats.percentile a q') >= 10 then
              Alcotest.failf "n=%d: q=%g also has ten beyond but %g was chosen" n q' q)
          Stats.ladder
  done;
  Alcotest.(check (option (float 0.0))) "p99 from 1000 samples" (Some 99.0)
    (Stats.tail_percentile 1000);
  Alcotest.(check (option (float 0.0))) "p95 from 999 samples" (Some 95.0)
    (Stats.tail_percentile 999)

let test_percentile_nearest_rank () =
  let a = Stats.sorted [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Alcotest.(check (float 0.0)) "median" 3.0 (Stats.percentile a 50.0);
  Alcotest.(check (float 0.0)) "p100" 5.0 (Stats.percentile a 100.0);
  Alcotest.(check (float 0.0)) "p0 is the minimum" 1.0 (Stats.percentile a 0.0);
  Alcotest.(check (float 0.0)) "median of even count" 2.0 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_calibration () =
  let nominal = Calib.r_nominal_ms in
  Alcotest.(check (float 1e-12)) "identity at the nominal reference" 42.0
    (Calib.calibrate ~raw:42.0 ~r_local:nominal);
  Alcotest.(check (float 1e-12)) "a slow phase is scaled down" 50.0
    (Calib.calibrate ~raw:100.0 ~r_local:(2.0 *. nominal));
  Alcotest.(check (float 1e-12)) "r_local is the faster side" 15.0
    (Calib.r_local ~before:15.0 ~after:25.0);
  Alcotest.(check (float 1e-12)) "r_local either way round" 15.0
    (Calib.r_local ~before:25.0 ~after:15.0);
  (* the same work at half speed, reference included, reads the same *)
  Alcotest.(check (float 1e-9)) "speed-invariant"
    (Calib.calibrate ~raw:30.0 ~r_local:16.0)
    (Calib.calibrate ~raw:60.0 ~r_local:32.0);
  let around r_before r_after = { Calib.raw_ms = 1.0; r_before; r_after; cal_ms = 1.0 } in
  Alcotest.(check bool) "references a tenth apart are one speed" false
    (Calib.straddles (around 10.0 10.9));
  Alcotest.(check bool) "a faster side after a slower one straddles" true
    (Calib.straddles (around 11.5 10.0));
  Alcotest.(check bool) "a slower side after a faster one straddles" true
    (Calib.straddles (around 10.0 11.5));
  let t = Calib.create () in
  let v, s = Calib.measure t (fun () -> 7) in
  Alcotest.(check int) "value passed through" 7 v;
  Alcotest.(check (float 1e-9)) "sample arithmetic"
    (s.Calib.raw_ms *. nominal /. Float.min s.Calib.r_before s.Calib.r_after)
    s.Calib.cal_ms;
  let _, s' = Calib.measure t (fun () -> ()) in
  Alcotest.(check (float 0.0)) "the reference after a sample is the one before the next"
    s.Calib.r_after s'.Calib.r_before;
  Alcotest.(check int) "every reference timing kept" 3 (List.length (Calib.refs t))

(* On the simulated clock with the default step cost, the benchmark's
   replay loop and Loadgen.run produce the same events at the same
   virtual times. *)
let model () =
  Transformer.Model.create ~n_layers:1 ~vocab:16
    { Transformer.Hparams.tiny with dropout_p = 0.0 }

let replay_matches pattern () =
  let m = model () in
  let spec = { Serve.Loadgen.default_spec with n = 40; pattern; seed = 5L } in
  let arrivals = Serve.Loadgen.trace spec in
  let run f =
    let clock = Serve.Clock.sim () in
    let sched = Serve.Scheduler.create ~clock m in
    f sched clock;
    (Serve.Scheduler.events sched, Serve.Clock.now clock)
  in
  let ev_ref, t_ref = run (fun s c -> Serve.Loadgen.run s c arrivals) in
  let ticks = ref 0 in
  let ev, t =
    run (fun s c ->
        let r =
          Replay.run ~around_tick:(fun tick -> incr ticks; tick ()) s c arrivals
        in
        Alcotest.(check int) "every arrival submitted" 40 r.Replay.submitted;
        Array.iter
          (fun l -> if l < 0.0 then Alcotest.fail "submitted before due")
          r.Replay.late)
  in
  Alcotest.(check bool) "ticks went through the hook" true (!ticks > 0);
  Alcotest.(check int) "event count" (List.length ev_ref) (List.length ev);
  Alcotest.(check bool) "identical event sequence" true (ev_ref = ev);
  Alcotest.(check (float 0.0)) "identical final virtual time" t_ref t

let test_stop () =
  let m = model () in
  let arrivals =
    Serve.Loadgen.trace
      { Serve.Loadgen.default_spec with n = 30; pattern = Uniform { gap = 0.01 } }
  in
  let clock = Serve.Clock.sim () in
  let sched = Serve.Scheduler.create ~clock m in
  let r =
    Replay.run ~stop:(fun () -> Serve.Clock.now clock >= 0.1) sched clock arrivals
  in
  Alcotest.(check bool) "submissions stopped early" true (r.Replay.submitted < 30);
  Alcotest.(check bool) "drained" true (Serve.Scheduler.idle sched);
  Alcotest.(check int) "every submitted request completed" r.Replay.submitted
    (Serve.Scheduler.metrics sched).Serve.Metrics.completed

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile has ten beyond" `Quick test_tail_rule;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile_nearest_rank;
        ] );
      ("calibration", [ Alcotest.test_case "arithmetic" `Quick test_calibration ]);
      ( "replay",
        [
          Alcotest.test_case "poisson equals Loadgen.run" `Quick
            (replay_matches (Serve.Loadgen.Poisson { rate = 200.0 }));
          Alcotest.test_case "bursty equals Loadgen.run" `Quick
            (replay_matches (Serve.Loadgen.Bursty { burst = 6; period = 0.004 }));
          Alcotest.test_case "offline (all at t=0) equals Loadgen.run" `Quick
            (replay_matches (Serve.Loadgen.Uniform { gap = 0.0 }));
          Alcotest.test_case "stop ends submissions, then drains" `Quick test_stop;
        ] );
    ]
