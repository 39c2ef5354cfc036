(** The warm store of prepared circuits: compiled (techmapped) circuits
    plus their persistent ATPG outcome ({!Flow.prepared}), keyed by
    {!Flow.prepare_key} — the digest of the netlist text and the full
    ATPG configuration — with LRU eviction at a fixed capacity. The
    expensive prepare (techmap + CPT fault-sim + PODEM) runs once per
    distinct (netlist, config) and every later use of it pays only
    {!Flow.evaluate}. It is the only such store: the serving daemon's
    [flow], [atpg] and [sweep-point] requests share one, and
    {!Sweep.run} prepares each point through one.

    A registry is plain mutable state with no lock: one owner (the
    daemon loop, one sweep batch) uses it at a time.

    Hits, misses and evictions are mirrored into the telemetry
    counters [server.registry.{hit,miss,eviction}] and the gauge
    [server.registry.entries], so the metrics snapshot shows the warm
    working set directly. *)

type t

type stats = {
  s_capacity : int;
  s_entries : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
}

val create : ?capacity:int -> unit -> t
(** Default capacity 32 prepared circuits. Raises [Invalid_argument]
    when [capacity < 1]. *)

val find_or_prepare :
  t ->
  key:string ->
  name:string ->
  (unit -> Flow.prepared) ->
  Flow.prepared * bool
(** Returns the resident machine and [true] on a hit; otherwise runs
    [build], inserts the result, evicts least-recently-used entries
    beyond capacity and returns [..., false]. A [build] that raises
    (e.g. a validation error) inserts nothing. *)

val trim : t -> keep:int -> int
(** Evict least-recently-used entries until at most [keep] remain;
    returns how many were evicted. The memory-pressure watchdog's
    first relief valve. *)

val snapshot : t -> path:string -> int
(** Atomically write every resident entry (Marshal blob guarded by a
    magic line and payload digest) to [path] via a temp-file rename,
    so a reader never sees a torn snapshot. Returns the entry count.
    Raises on I/O errors (unwritable directory). *)

val restore : t -> path:string -> int
(** Load a {!snapshot} back, preserving LRU order; returns how many
    entries were restored. Never raises: a missing, truncated,
    corrupted or version-mismatched file is a silent cold start
    (returns 0). Restored entries count as warm — a later
    [find_or_prepare] on a restored key is a hit. *)

val stats : t -> stats

val stats_json : t -> Telemetry.Json.t
(** [stats] plus one record per resident entry (key, circuit,
    per-entry hits) for the [stats] request and the final drain
    line. *)
