(** Execution plans: a functional program paired with the kernel stream a
    framework would launch for it, plus per-kernel dispatch overhead.

    All baselines and the recipe-optimized implementation reduce to plans,
    so they are timed by the same simulator and can be checked for
    numerical agreement through the same interpreter. *)

type workload = Encoder_layer | Mha_block

type plan = {
  name : string;
  program : Ops.Program.t;  (** functional semantics *)
  kernels_forward : Gpu.Kernel.t list;
  kernels_backward : Gpu.Kernel.t list;
  dispatch_overhead : float;  (** CPU-side cost per kernel, s *)
}

type report = {
  plan : plan;
  forward : Gpu.Simulator.run;
  backward : Gpu.Simulator.run;
  forward_time : float;  (** kernels + dispatch, s *)
  backward_time : float;
}

val total_time : report -> float

(** [time_plan device plan] runs the kernel stream through the simulator. *)
val time_plan : Gpu.Device.t -> plan -> report

(** Numerical guard level for the functional interpreter. [Check_nan] (the
    default) flags NaN, which is never legitimate in these programs;
    [Check_finite] additionally flags infinities (note that masked decoder
    attention legitimately materializes [-inf] logits, so [Check_finite]
    is only for programs without additive masks). *)
type numeric_check = No_check | Check_nan | Check_finite

(** Raised by [run_functional] when an operator writes a non-finite value:
    names the offending operator, the container, and the value class. *)
exception
  Numerical_fault of { fault_op : string; container : string; value : string }

(** {1 Resilient execution}

    A {!resilience} policy bounds and supervises a functional run: a
    whole-run deadline, a per-kernel time budget, op-level retries, the
    kernel-guard level, and whether guarded failures fall back to the
    naive oracle. {!run_resilient} additionally returns a structured
    {!run_report} listing every fallback the guard engaged, every
    operator that needed a retry, and the quarantine state — so a run
    that survived injected faults is distinguishable from one that never
    saw any. *)

type resilience = {
  deadline : float option;  (** whole-run wall-clock budget, seconds *)
  kernel_timeout : float option;  (** per guarded kernel launch, seconds *)
  retries : int;  (** op-level re-attempts on recoverable failure *)
  guard : Guard.level;  (** kernel-guard level for the run *)
  fallback : bool;  (** naive-oracle fallback on guarded failures *)
}

(** No deadline, no kernel budget, one retry, [Guard.Nan], fallback on. *)
val default_resilience : resilience

type run_report = {
  rr_fallbacks : Guard.event list;  (** every fallback, execution order *)
  rr_retried : (string * int) list;  (** op name, retries it consumed *)
  rr_quarantine : Guard.entry list;  (** quarantine state after the run *)
  rr_elapsed : float;  (** wall-clock seconds *)
}

val pp_run_report : Format.formatter -> run_report -> unit

(** [run_resilient ?resilience ?check ?fast plan inputs] interprets the
    plan's program under the policy and reports what resilience machinery
    engaged. [Pool.Cancelled] and a blown {e run} deadline
    ([Pool.Deadline_exceeded]) propagate; kernel-level failures are
    absorbed per policy. *)
val run_resilient :
  ?resilience:resilience ->
  ?check:numeric_check ->
  ?fast:bool ->
  plan ->
  (string * Dense.t) list ->
  Ops.Op.env * run_report

(** [run_functional ?check ?resilience ?fast plan inputs] interprets the
    plan's program, validating every container an operator writes
    according to [check] (default [Check_nan]). [resilience] routes the
    run through {!run_resilient} (dropping the report). [fast] pins the
    numeric backend for the duration of the run ([true] = blocked-GEMM
    einsum + fused kernels, [false] = the naive oracle); when omitted,
    the ambient {!Fastmode.enabled} setting applies.

    All three entry points compile through {!Compile.Compiled} first —
    [run_functional]/[run_resilient] under the passthrough regime (no
    rewriting), [run_planned] under the planned one — so structurally
    identical runs hit the plan cache and re-run zero passes. *)
val run_functional :
  ?check:numeric_check ->
  ?resilience:resilience ->
  ?fast:bool ->
  plan ->
  (string * Dense.t) list ->
  Ops.Op.env

(** [run_planned ?check ?fast ?keep plan inputs] interprets the plan's
    program through the static memory planner ({!Ops.Memplan}):
    bitwise-equal to {!run_functional} with the same per-op numerical
    scan, but intermediates recycle lifetime-analyzed slot buffers
    (in-place / aliased where legal) instead of allocating fresh.
    [keep] names intermediate containers the caller reads from the
    returned environment (terminal outputs are always kept). Degrades
    to the unplanned interpreter when {!Compile.Regime.planned} leaves
    [plan_memory] off (its default under [SUBSTATION_NOPLAN=1]). *)
val run_planned :
  ?check:numeric_check ->
  ?fast:bool ->
  ?keep:string list ->
  plan ->
  (string * Dense.t) list ->
  Ops.Op.env

(** [default_kernels ?quality program ops ~device] builds one kernel per
    operator using the framework-natural configuration. *)
val default_kernels :
  ?quality:float -> device:Gpu.Device.t -> Ops.Program.t -> Ops.Op.t list
  -> Gpu.Kernel.t list

val workload_to_string : workload -> string
