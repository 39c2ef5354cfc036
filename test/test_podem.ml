(* The PODEM engine pinned cube-for-cube. The goldens were frozen from
   the previous Circuit.t engine after both engines returned equal
   results on every collapsed fault (SCOAP guide, 25 backtracks); any
   change to the search order, the backtrace costs or the five-valued
   algebra moves the digest. *)

(* Test / Untestable / Aborted counts over the collapsed faults, and the
   MD5 of every test cube (one [0]/[1]/[x] line each, fault order). *)
let fingerprint name =
  let c = Circuits.by_name name (* generated pre-mapped, as the flow runs it *) in
  let podem = Atpg.Podem.make ~guide:(Atpg.Scoap.compute c) c in
  let cubes = Buffer.create 4096 in
  let t = ref 0 and u = ref 0 and a = ref 0 in
  List.iter
    (fun f ->
      match Atpg.Podem.generate ~backtrack_limit:25 podem f with
      | Atpg.Podem.Test cube ->
        incr t;
        Array.iter (fun v -> Buffer.add_char cubes (Netlist.Logic.to_char v)) cube;
        Buffer.add_char cubes '\n'
      | Atpg.Podem.Untestable -> incr u
      | Atpg.Podem.Aborted -> incr a)
    (Atpg.Fault.collapsed_faults c);
  (!t, !u, !a, Digest.to_hex (Digest.string (Buffer.contents cubes)))

let golden name ~tests ~untestable ~aborted ~md5 () =
  let t, u, a, digest = fingerprint name in
  Alcotest.(check int) "tests" tests t;
  Alcotest.(check int) "untestable" untestable u;
  Alcotest.(check int) "aborted" aborted a;
  Alcotest.(check string) "cube digest" md5 digest

let suite =
  [
    Alcotest.test_case "golden s344" `Quick
      (golden "s344" ~tests:345 ~untestable:48 ~aborted:154
         ~md5:"11eae8de14ae9ac7bc62d4ae157a6007");
    Alcotest.test_case "golden s713" `Quick
      (golden "s713" ~tests:815 ~untestable:32 ~aborted:566
         ~md5:"e66b4ec077a017f45b94778139c3b85a");
  ]
