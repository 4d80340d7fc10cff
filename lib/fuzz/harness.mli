(** Top-level fuzzing loop: generate a universe per round, run every
    oracle over it, and on failure shrink the universe to a minimal
    reproducer and render it as paste-ready OCaml.

    Deterministic: round [k] of [run ~seed] always sees the same
    universe, so a one-line report ("seed 42 round 17") reproduces any
    failure exactly. *)

type injection =
  | Drop_pb  (** make [Asp.Sat.add_pb_le] a no-op *)
  | Skip_unfounded
      (** skip [Asp.Logic]'s stability check. The generated concretizer
          universes do not expose it: their answers do not change. Its
          oracle is the brute-force stable-model property in
          [test/test_asp.ml]. *)

val injection_of_string : string -> injection option

type failure = {
  round : int;
  violations : string list;  (** from the original universe *)
  shrunk : Gen.t;  (** minimal universe still violating *)
  shrunk_violations : string list;
}

type report = {
  seed : int;
  rounds : int;
  stats : Oracle.stats;
  failures : failure list;
}

val universe : seed:int -> round:int -> Gen.t
(** The universe tested at (seed, round) — for reproducing reports. *)

val run :
  ?log:(string -> unit) ->
  ?inject:injection ->
  ?obs:Obs.ctx ->
  seed:int ->
  rounds:int ->
  unit ->
  report
(** Fault injection is scoped to the call: the hooks are reset even on
    exceptions. With a tracing context, the whole run is a [fuzz] span
    with one [fuzz.round] child per round (violation counts attached)
    and [fuzz.shrink] spans around minimization. *)

val pp_failure : Format.formatter -> failure -> unit

val pp_report : Format.formatter -> report -> unit
