(* Open-loop replay of a [Serve.Loadgen] trace on the scheduler's clock,
   with the benchmark's hooks around each scheduler turn.

   The event sequence is the one [Serve.Loadgen.run] produces: submit
   every arrival whose due time has passed, otherwise tick, and on idle
   move the clock to the earlier of the scheduler's wake-up and the next
   arrival. The differences are measurement only: [before_tick] runs
   before every [Scheduler.tick] (the benchmark stamps the tick's wall
   start there and interleaves reference timings), [stop] ends
   submissions early (the run's time budget), and the result records when
   each request was submitted relative to when it was due. *)

module Scheduler = Serve.Scheduler
module Clock = Serve.Clock
module Loadgen = Serve.Loadgen

type result = {
  submitted : int;  (** arrivals offered; request ids 0 .. submitted-1 *)
  late : float array;  (** submit time minus due time, >= 0 *)
}

let run ?(around_tick = fun tick -> tick ()) ?(stop = fun () -> false) sched clock
    (arrivals : Loadgen.arrival array) =
  let n = Array.length arrivals in
  let base = Clock.now clock in
  let due i = base +. arrivals.(i).Loadgen.at in
  let late = Array.make n 0.0 in
  let i = ref 0 in
  let limit = ref n in
  let rec go () =
    if !i < !limit && stop () then limit := !i;
    if !i < !limit && Clock.now clock >= due !i then begin
      let a = arrivals.(!i) in
      late.(!i) <- Clock.now clock -. due !i;
      incr i;
      ignore
        (Scheduler.submit sched ~prompt:a.Loadgen.prompt
           ~max_new:a.Loadgen.a_max_new ?deadline_in:a.Loadgen.a_deadline ());
      go ()
    end
    else begin
      match around_tick (fun () -> Scheduler.tick sched) with
      | `Stepped -> go ()
      | `Idle_until ts ->
          let target = if !i < !limit then Float.min ts (due !i) else ts in
          Clock.advance_to clock (Float.max target (Clock.now clock +. 1e-6));
          go ()
      | `Drained ->
          if !i < !limit then begin
            Clock.advance_to clock (due !i);
            go ()
          end
    end
  in
  go ();
  {
    submitted = !i;
    late = Array.sub late 0 !i;
  }
