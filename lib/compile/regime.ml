(* A compilation regime: the execution-environment half of the plan-cache
   key, plus the switches that decide which passes run. Fingerprint x
   regime identifies a plan completely — the same program compiled fast
   vs naive, serial vs parallel, or with different guard levels yields
   distinct cache entries (the regimes cannot share a Memplan, whose slot
   shapes depend on the schedule, nor pass traces). *)

type t = {
  fast : bool;  (* fast CPU backend vs naive oracle *)
  domains : int;  (* effective worker domain count *)
  guard : Guard.level;  (* kernel-guard level *)
  attention : bool;  (* recognize streaming-attention windows *)
  fuse : bool;  (* generic fusion engine *)
  dce : bool;  (* dead-code elimination + CSE *)
  tune : bool;  (* tuned-parameter binding (needs a device) *)
  plan_memory : bool;  (* static memory planning *)
  prepack : bool;  (* weight prepack annotation (needs params) *)
  keep : string list;  (* containers the caller reads from the env *)
  retain_all : bool;  (* keep every intermediate materialized *)
}

(* The full pipeline under the ambient execution environment.
   SUBSTATION_NOPLAN=1 only sets [plan_memory]'s default here and in
   [planned]; the memory-plan pass and the executor read the regime. *)
let current ?(attention = true) ?(fuse = true) ?(keep = []) () =
  {
    fast = Fastmode.enabled ();
    domains = Pool.num_domains ();
    guard = Guard.current_level ();
    attention;
    fuse;
    dce = true;
    tune = true;
    plan_memory = not (Substation_env.noplan ());
    prepack = true;
    keep;
    retain_all = false;
  }

(* No rewriting at all: the program executes op-for-op as written, every
   intermediate retained. This is what the executor's run_functional /
   run_resilient entry points and the training forward (whose backward
   reads retained intermediates) compile under. *)
let passthrough ?fast ?(keep = []) () =
  {
    fast = (match fast with Some b -> b | None -> Fastmode.enabled ());
    domains = Pool.num_domains ();
    guard = Guard.current_level ();
    attention = false;
    fuse = false;
    dce = false;
    tune = false;
    plan_memory = false;
    prepack = false;
    keep;
    retain_all = true;
  }

(* Passthrough plus static memory planning: run_planned's regime. *)
let planned ?fast ?(keep = []) () =
  {
    (passthrough ?fast ~keep ()) with
    plan_memory = not (Substation_env.noplan ());
    retain_all = false;
  }

let key t =
  Printf.sprintf
    "fast=%b;dom=%d;guard=%s;attn=%b;fuse=%b;dce=%b;tune=%b;plan=%b;prepack=%b;retain=%b;keep=%s"
    t.fast t.domains
    (Guard.level_to_string t.guard)
    t.attention t.fuse t.dce t.tune t.plan_memory t.prepack t.retain_all
    (String.concat "," t.keep)
