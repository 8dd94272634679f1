(** Static memory planning: lifetime-analyzed slot placement, in-place and
    aliased execution, and a schedule chosen to minimize the resident set.

    {!Program.run} allocates a fresh tensor per op and retains every
    container, so its peak resident set is the sum of all intermediates.
    [plan] analyzes container lifetimes over a (post-fusion) program,
    compares the program order against a greedy peak-minimizing
    topological reorder, and assigns each non-escaping container to a
    recycled slot buffer: element-wise ops whose input dies at that op
    run in place, pure copies become zero-copy aliases, contractions
    write straight into their slot, and ops the planner cannot place
    run their own closure with the output adopted into the slot after the
    fact. Aliasing is conservative — pinned inputs and outputs that
    escape to the caller are always copied for real, and a buffer with
    live aliases is never overwritten.

    The planner only places; it computes no values. [execute] is
    bitwise-equal to {!Program.run} (serial and parallel, fast and naive
    mode): the environment remains the source of truth, placed
    element-wise ops run through {!Fastpath.run_elt} (the fused-chain
    kernel) writing into their slot, contractions through
    {!Einsum.contract}'s [?into], and guarded kernels recover into
    private storage no live tensor aliases.

    Whether a program is planned is decided by the compilation regime
    ([Regime.plan_memory], defaulting to [not SUBSTATION_NOPLAN]). *)

type t
(** A compiled plan: a placement-annotated action per op plus the slot
    buffers it recycles across runs. *)

type stats = {
  ops : int;
  containers : int;  (** materialized (written) containers *)
  naive_peak_floats : int;  (** allocate-everything resident set *)
  plan_peak_floats : int;  (** slab + escaping outputs under the plan *)
  live_peak_floats : int;  (** max simultaneously-live floats in the schedule *)
  slots : int;
  slab_floats : int;  (** total recycled slot storage *)
  placed : int;  (** element-wise/contraction ops written straight into slots *)
  adopted : int;  (** opaque ops whose outputs were adopted into slots *)
  inplace : int;  (** element-wise ops overwriting their dying input *)
  aliased : int;  (** copies elided into zero-copy views *)
  copies_elided_floats : int;
  reordered : bool;  (** schedule differs from program order *)
}

val register_sidecar : string -> unit
(** Register an environment-key suffix that shadows a container (e.g.
    [".lse"] for streaming attention's per-row logsumexp): removing a
    dead container also removes [container ^ suffix]. *)

val naive_peak_floats : Program.t -> int
(** Allocate-everything resident set of a program, in floats: every
    container some op writes, materialized at once (caller-owned inputs
    are not counted). The [naive_peak_floats] of {!stats} and of every
    compiler pass-trace row before the memory plan. *)

val plan : ?keep:string list -> Program.t -> t
(** Analyze and place [p]. Containers in [keep] (plus terminal outputs
    that no op reads) escape to the caller: they get fresh storage every
    run and are never aliased. Both the program order and the greedy
    peak-minimizing schedule are placed; the plan keeps whichever yields
    the smaller planned resident set. *)

val stats : t -> stats

val execute :
  ?check_op:(Op.t -> Op.env -> unit) ->
  ?wrap_op:(Op.t -> (unit -> unit) -> unit) ->
  t ->
  (string * Dense.t) list ->
  Op.env
(** Run the plan over [inputs]. [check_op], called after each op with the
    environment still holding that op's outputs (and before dead
    containers are dropped), hosts the executor's numerical guards.
    [wrap_op op body] wraps each op's execution (action body + check, but
    not the dead-container removal, so a retrying wrapper sees a
    consistent environment); the compiled-plan executor uses it to scope
    per-op tuned bindings and resilience retries. [wrap_op] must call
    [body] exactly once on the success path. The returned environment
    holds the inputs plus kept containers. A concurrent [execute] of the
    same plan is safe: the second caller runs against private
    (non-recycled) buffers. *)
