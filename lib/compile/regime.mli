(** Compilation regimes: the execution-environment half of the plan-cache
    key (fastmode, domain count, guard level) plus the switches deciding
    which passes run. (program fingerprint x regime) identifies a
    {!Compiled.plan} completely. *)

type t = {
  fast : bool;  (** fast CPU backend vs naive oracle *)
  domains : int;  (** effective worker domain count *)
  guard : Guard.level;  (** kernel-guard level *)
  attention : bool;  (** recognize streaming-attention windows *)
  fuse : bool;  (** generic fusion engine *)
  dce : bool;  (** dead-code elimination + CSE *)
  tune : bool;  (** tuned-parameter binding (engages when a device is
                    supplied to [compile]) *)
  plan_memory : bool;  (** static memory planning *)
  prepack : bool;  (** weight prepack annotation (needs [?params]) *)
  keep : string list;  (** containers the caller reads from the env *)
  retain_all : bool;  (** keep every intermediate materialized *)
}

(** The full pipeline (attention windowing, fusion, DCE, tuning, memory
    planning, prepack) under the ambient fastmode / domains / guard
    settings. [plan_memory] defaults to [not SUBSTATION_NOPLAN]. *)
val current : ?attention:bool -> ?fuse:bool -> ?keep:string list -> unit -> t

(** No rewriting: the program executes op-for-op as written with every
    intermediate retained — the executor's run_functional/run_resilient
    regime, and the training forward's (its backward reads retained
    intermediates). [fast] defaults to the ambient {!Fastmode} setting. *)
val passthrough : ?fast:bool -> ?keep:string list -> unit -> t

(** {!passthrough} plus static memory planning (run_planned's regime);
    dead intermediates recycle slots, so only [keep] + terminal outputs
    survive in the returned environment. [plan_memory] defaults to
    [not SUBSTATION_NOPLAN], as in {!current}. *)
val planned : ?fast:bool -> ?keep:string list -> unit -> t

(** Canonical cache-key rendering. *)
val key : t -> string
