(** Corpus batch driver: a fleet of per-file analyses that degrade
    gracefully.

    [o2 analyze] handles exactly one [.cir] file; this module turns the
    same pipeline into a corpus harness. Every file runs inside a fault
    boundary — parse/lex/ill-formed errors, uncaught exceptions and
    {!O2_util.Budget} exhaustion each downgrade that one file to a
    structured [`Error]/[`Timeout] entry instead of killing the run — and
    files fan out across OCaml 5 domains ([config.jobs], through
    {!O2_util.Par}). Each file's analysis is serial and its report is
    rendered with no metrics attached, so it is byte-identical to
    [o2 analyze] of the same file whatever [jobs] is.

    Results can persist in an on-disk cache keyed by source digest and
    analysis configuration; a rerun serves digest-unchanged files from the
    cache ([e_cached = true]) with the identical report. *)

(** Per-file outcome. *)
type status = [ `Ok | `Error of string | `Timeout of string ]

type entry = {
  e_file : string;
  e_digest : string;  (** hex MD5 of the source; [""] if unreadable *)
  e_status : status;
  e_races : int;  (** 0 unless [`Ok] *)
  e_elapsed : float;  (** seconds spent on this file (0 on a cache hit) *)
  e_cached : bool;  (** served from the on-disk result cache *)
  e_report : string;
      (** rendered per-file report, byte-identical to serial [o2 analyze]
          (resp. [o2 analyze --json]); [""] unless [`Ok] *)
  e_counters : (string * int) list;
      (** key pipeline counters (PAG sizes, worklist iterations, pairs
          checked, races), name-sorted; [[]] unless freshly analyzed *)
}

type report = {
  b_policy : O2_pta.Context.policy;
  b_jobs : int;
  b_format : [ `Text | `Json ];  (** per-file report format of this run *)
  b_entries : entry list;  (** sorted by file name — deterministic for any [jobs] *)
  b_elapsed : float;  (** corpus wall-clock seconds *)
  b_metrics : O2_util.Metrics.t;
      (** aggregate sink: [batch.*] counters plus the merged per-file
          pipeline counters/timers *)
}

type config = {
  policy : O2_pta.Context.policy;
  serial_events : bool;
  lock_region : bool;
  entry : O2_frontend.Parser.entry;
      (** entry-point selection per file (default [Auto]: [main C;]
          programs and Android-style class lists both analyze); part of
          the cache key *)
  jobs : int;  (** worker domains across files; each file's analysis is serial *)
  format : [ `Text | `Json ];  (** per-file report format *)
  wall : float option;  (** per-file wall-clock budget, seconds *)
  max_steps : int option;  (** per-file PTA worklist-step ceiling *)
  cache_file : string option;  (** on-disk result cache; [None] = disabled *)
}

(** Paper-default pipeline, serial, text reports, no budgets, no cache. *)
val default : config

(** [enumerate paths] expands each path: a directory contributes its
    [.cir] files (non-recursive), a plain file contributes itself. The
    result is name-sorted and deduplicated. [Error msg] on a path that
    does not exist or cannot be read. *)
val enumerate : string list -> (string list, string) result

(** [run cfg files] analyzes every file under [cfg]'s fault boundary and
    budgets, fanning across [cfg.jobs] domains, and returns the aggregate
    report (entries name-sorted). Never raises on malformed or
    over-budget inputs. *)
val run : config -> string list -> report

(** [render ?per_file r] renders the aggregate report.

    Text ([cfg.format = `Text]): one table row per file (status, races,
    elapsed, cache/failure detail) plus a summary line; with
    [per_file = true] (default false) each [`Ok] file's full serial
    report precedes the table.

    JSON: the [o2_batch/v1] document —
    [{"schema":"o2_batch/v1","policy":..,"jobs":..,"elapsed":..,
      "files":[{"file","digest","status","races","elapsed","cached",
                "report","counters",("error")}],
      "summary":{"total","ok","errors","timeouts","cached","races"},
      "metrics":{..aggregate..}}]. *)
val render : ?per_file:bool -> report -> string

(** [exit_code r] is 0 when every entry is [`Ok], 1 otherwise — the
    [o2 batch] process exit status. *)
val exit_code : report -> int

(** [n_failed r] counts [`Error] and [`Timeout] entries. *)
val n_failed : report -> int

(** [total_races r] sums races over [`Ok] entries. *)
val total_races : report -> int
