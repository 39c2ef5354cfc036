module Json = Telemetry.Json

(* Global counters: the metrics snapshot is the delivery vehicle for
   hit/miss/eviction visibility; the per-registry totals are in
   [stats]. *)
let c_hits = Telemetry.Counter.make "server.registry.hit"
let c_misses = Telemetry.Counter.make "server.registry.miss"
let c_evictions = Telemetry.Counter.make "server.registry.eviction"
let g_entries = Telemetry.Gauge.make "server.registry.entries"

type entry = {
  key : string;
  circuit_name : string;
  prepared : Flow.prepared;
  mutable entry_hits : int;
  mutable last_used : int;
}

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  s_capacity : int;
  s_entries : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
}

let create ?(capacity = 32) () =
  if capacity < 1 then invalid_arg "Registry.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let publish t =
  if Telemetry.enabled () then
    Telemetry.Gauge.set g_entries (float_of_int (Hashtbl.length t.table))

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best <= e.last_used -> acc
        | _ -> Some (key, e.last_used))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (key, _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1;
    Telemetry.Counter.inc c_evictions

let find_or_prepare t ~key ~name build =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.table key with
  | Some e ->
    e.last_used <- t.tick;
    e.entry_hits <- e.entry_hits + 1;
    t.hits <- t.hits + 1;
    Telemetry.Counter.inc c_hits;
    (e.prepared, true)
  | None ->
    t.misses <- t.misses + 1;
    Telemetry.Counter.inc c_misses;
    (* build before inserting: a failed prepare (validation error)
       must not leave a half-entry resident *)
    let prepared = build () in
    let e =
      { key; circuit_name = name; prepared; entry_hits = 0;
        last_used = t.tick }
    in
    Hashtbl.replace t.table key e;
    while Hashtbl.length t.table > t.capacity do
      evict_lru t
    done;
    publish t;
    (prepared, false)

let trim t ~keep =
  let keep = max 0 keep in
  let evicted = ref 0 in
  while Hashtbl.length t.table > keep do
    evict_lru t;
    incr evicted
  done;
  if !evicted > 0 then publish t;
  !evicted

(* Snapshot format: a text header (magic line, hex digest of the
   payload, payload byte length) followed by the raw Marshal blob of
   the entry list. The digest makes a truncated or clobbered file a
   detected cold start instead of a Marshal segfault; the magic pins
   the format version so an old snapshot read by a new binary is
   likewise just cold (/2: ATPG counts whose untestable faults include
   the ones implication refutes; /3: whose detected faults include the
   aborted ones the final test set detects; /4: whose scan chain is a
   partition into chains; /5: ATPG counts whose untestable faults
   include the ones the learned constant lines refute). [Flow.prepared] is pure data (no closures),
   so Marshal round-trips it. *)
let snapshot_magic = "scanpower-registry-snapshot/5"

let snapshot t ~path =
  let entries =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
    |> List.sort (fun a b -> compare a.last_used b.last_used)
    |> List.map (fun e -> (e.key, e.circuit_name, e.prepared, e.entry_hits))
  in
  let payload =
    Marshal.to_string
      (entries
        : (string * string * Flow.prepared * int) list)
      []
  in
  let digest = Digest.to_hex (Digest.string payload) in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%s\n%s\n%d\n" snapshot_magic digest
        (String.length payload);
      output_string oc payload;
      flush oc);
  Unix.rename tmp path;
  List.length entries

let restore t ~path =
  (* Never raises: any defect — missing file, bad magic, short read,
     digest mismatch, malformed Marshal — is a silent cold start. *)
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        if input_line ic <> snapshot_magic then 0
        else
          let digest = input_line ic in
          let len = int_of_string (input_line ic) in
          if len < 0 || len > 1_000_000_000 then 0
          else begin
            let payload = really_input_string ic len in
            if Digest.to_hex (Digest.string payload) <> digest then 0
            else begin
              let entries =
                (Marshal.from_string payload 0
                  : (string * string * Flow.prepared * int) list)
              in
              let restored = ref 0 in
              (* oldest-first insertion keeps the snapshot's LRU order;
                 overflow past capacity evicts the stalest as usual *)
              List.iter
                (fun (key, circuit_name, prepared, entry_hits) ->
                  t.tick <- t.tick + 1;
                  Hashtbl.replace t.table key
                    { key; circuit_name; prepared; entry_hits;
                      last_used = t.tick };
                  incr restored)
                entries;
              ignore (trim t ~keep:t.capacity);
              publish t;
              !restored
            end
          end)
  with _ -> 0

let stats t =
  {
    s_capacity = t.capacity;
    s_entries = Hashtbl.length t.table;
    s_hits = t.hits;
    s_misses = t.misses;
    s_evictions = t.evictions;
  }

let stats_json t =
  let s = stats t in
  let residents =
    Hashtbl.fold
      (fun _ e acc ->
        Json.Obj
          [
            ("key", Json.String e.key);
            ("circuit", Json.String e.circuit_name);
            ("hits", Json.Int e.entry_hits);
          ]
        :: acc)
      t.table []
  in
  Json.Obj
    [
      ("capacity", Json.Int s.s_capacity);
      ("entries", Json.Int s.s_entries);
      ("hits", Json.Int s.s_hits);
      ("misses", Json.Int s.s_misses);
      ("evictions", Json.Int s.s_evictions);
      ("resident", Json.List residents);
    ]
