(** Benchmark circuits for the experiments.

    The paper evaluates on ISCAS89 netlists, which are not shipped in
    this sealed environment. The genuine s27 is embedded below; for
    the twelve Table I circuits a deterministic generator synthesises
    netlists with each benchmark's published interface and size
    statistics (PI/PO/FF/gate counts) and a realistic structure
    (fanin distribution over the NAND/NOR/INV library, locality-biased
    wiring, sequential feedback through the flip-flops, no dangling
    logic). Real [.bench] files drop in through
    {!Netlist.Bench_parser} at any time. See DESIGN.md §2 for why the
    substitution preserves the experiment's shape. *)

open Netlist

val s27 : unit -> Circuit.t
(** The genuine ISCAS89 s27 (4 PI / 1 PO / 3 FF / 10 gates), unmapped
    (contains AND/OR gates; run {!Techmap.Mapper.map} before power
    analysis). *)

val s27_bench_text : string

(** Size profile of a benchmark to synthesise. *)
type profile = {
  name : string;
  n_pi : int;
  n_po : int;
  n_ff : int;
  n_gates : int;
  seed : int;
}

val table1_profiles : profile list
(** The twelve circuits of the paper's Table I (s344 … s9234) with
    their published interface statistics. *)

val scale_profiles : profile list
(** Deterministic scale tier beyond Table I: [g50k] (50k gates /
    512 FFs) and [g100k] (100k gates / 1024 FFs), for benchmarking the
    pattern-parallel kernels at sizes where per-batch setup has fully
    amortised. *)

val generate : profile -> Circuit.t
(** Deterministic: equal profiles give identical netlists. The result
    uses only NAND2-4 / NOR2-4 / INV, so it is already mapped. *)

val by_name : string -> Circuit.t
(** ["s27"] gives the embedded netlist, any profile name its generated
    circuit.
    @raise Not_found for unknown names. *)

val list_columns : string -> (string * int) list
(** The columns [scanpower list] prints for a benchmark name: inputs,
    outputs, dffs, gates and nodes. A generated circuit's come from its
    profile without building the netlist: its nodes are its PIs, POs
    (each primary output is a node of its own), flip-flops and gates.
    Only s27 is built, for {!Netlist.Circuit.stats}.
    @raise Not_found for unknown names. *)

val names : string list
(** All available benchmark names, s27 first. *)

val find : string -> (Circuit.t, string) result
(** Like {!by_name} but an unknown name yields a human-usable error
    listing every valid benchmark name instead of raising. *)
