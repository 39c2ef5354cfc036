let domains_created = Atomic.make false
let note_domain_spawn () = Atomic.set domains_created true
let fork_unavailable () = Atomic.get domains_created
