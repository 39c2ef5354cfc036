(** Crash-only supervision for the daemon: the accept/dispatch loop
    runs in a forked, monitored child, and the parent's only job is to
    watch it die and decide whether to restart it.

    A child that exits 0 (a clean SIGTERM drain) ends supervision. Any
    other death — a crash, an injected [Worker_kill] SIGKILL, an OOM
    kill — spends one token from a restart budget and forks the next
    generation, which re-binds the socket (the stale-socket probe in
    {!Daemon} replaces the dead generation's file) and restores the
    warm registry from the snapshot when one is configured, so clients
    only see a brief connect retry. The token bucket refills with
    uptime; a crash loop drains it in seconds and {!run} then raises a
    [runtime] error (exit 4) instead of restart-storming.

    SIGTERM/SIGINT to the supervisor are forwarded to the live child,
    whose drain writes the final snapshot and flushes telemetry
    subscribers before it exits.

    The generation number is passed to each child
    ({!Daemon.config.generation}): it is echoed in [health]/[stats]
    values — how a chaos test observes the restart — and folded into
    the [Worker_kill] fault-injection roll key so a spec that kills
    generation N deterministically spares N+1.

    OCaml 5 refuses [fork] in a process that has ever spawned a
    domain, so a program embedding the supervisor calls {!run} before
    spawning any. *)

type config = {
  daemon : Daemon.config;  (** per-generation daemon configuration *)
  restart_budget : int;  (** token-bucket capacity; must be [>= 1] *)
  restart_refill_s : float;
      (** seconds of uptime that earn one token back; [<= 0] = no refill *)
}

val default_config : config
(** {!Daemon.default_config}, budget 5, refill 30 s. *)

val run : ?config:config -> unit -> unit
(** Supervise until the child drains cleanly. Raises
    {!Scanpower_errors.Error} with code [Runtime] when the restart
    budget is exhausted, and [Invalid_argument] when
    [restart_budget < 1]. *)
