(** The OCaml 5 fork ratchet: [Unix.fork] permanently refuses to run in
    a process that has ever spawned a domain, even once every domain is
    joined. The library itself spawns none; this flag lets a program
    that embeds it record its own spawns, so fork-based code (the
    daemon supervisor) can fail with a clear error instead of dying at
    the syscall. *)

val fork_unavailable : unit -> bool
(** True once {!note_domain_spawn} has been called in this process. *)

val note_domain_spawn : unit -> unit
(** Record that this process spawns a domain, so {!fork_unavailable}
    stays truthful. Call it immediately before the spawn. *)
