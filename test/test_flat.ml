(* Flat-IR parity: the integer-indexed fast path is the ONLY default path
   through SHB construction, race detection and the OSA scan — the legacy
   AST walkers survive behind [~oracle:true] purely as test oracles. This
   suite pins the contract: byte-identical rendered reports and equal
   gated counters between the two paths, across every bundled model ×
   context policy and on block-forming scaled programs, plus a QCheck
   sweep over random programs and unit coverage for the lowering
   invariants themselves. *)

open O2_pta

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let policies =
  [ Context.Insensitive; Context.Kcfa 2; Context.Kobj 2; Context.Korigin 1 ]

(* the post-PTA counters both paths set; PTA itself is shared, so the
   pta.* entries of {!O2_batch.key_counter_names} cannot diverge *)
let gated_counters =
  [
    "shb.nodes"; "shb.edges"; "race.pairs_checked"; "race.hb_pruned";
    "race.lock_pruned"; "race.class_pruned"; "race.candidates"; "race.races";
    "osa.stmts_scanned"; "osa.accesses"; "osa.locations";
    "osa.shared_locations";
  ]

(* one post-PTA pipeline over a shared solve: SHB build, detection, OSA
   scan, report rendering — flat by default, legacy walkers under
   [oracle] *)
let pipeline ~oracle a =
  let m = O2_util.Metrics.create () in
  let g = O2_shb.Graph.build ~oracle ~metrics:m a in
  let r = O2_race.Detect.run ~metrics:m ~oracle g in
  let osa = O2_osa.Osa.run ~oracle ~metrics:m a in
  let res = { O2_race.Report.solver = a; graph = g; report = r } in
  let text = O2_race.Report.render res in
  let json = O2_race.Report.render ~format:`Json res in
  let counters = List.map (fun k -> (k, O2_util.Metrics.get m k)) gated_counters in
  (text, json, counters, osa)

let check_parity label a =
  let t_o, j_o, c_o, osa_o = pipeline ~oracle:true a in
  let t_f, j_f, c_f, osa_f = pipeline ~oracle:false a in
  check_str (label ^ " text") t_o t_f;
  check_str (label ^ " json") j_o j_f;
  List.iter2 (fun (k, vo) (_, vf) -> check_int (label ^ " " ^ k) vo vf) c_o c_f;
  check_int
    (label ^ " shared_accesses")
    (O2_osa.Osa.n_shared_accesses osa_o)
    (O2_osa.Osa.n_shared_accesses osa_f)

(* ---------------- flat ≡ oracle across the model corpus ---------------- *)

let test_models_parity () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      List.iter
        (fun policy ->
          let a = Solver.analyze ~policy (m.program ()) in
          check_parity
            (Printf.sprintf "%s/%s" m.name (Context.policy_name policy))
            a)
        policies)
    O2_workloads.Models.all

(* the heaviest distributed workload *)
let test_zookeeper_parity () =
  let p = O2_workloads.Synth.program (O2_workloads.Synth.find "zookeeper") in
  let a = Solver.analyze ~policy:(Context.Korigin 1) p in
  check_parity "zookeeper" a

(* ---------------- block-forming scale ---------------- *)

(* The random sweep below draws 1-3 threads and 0-2 events, which rarely
   forms an origin block of three or more members, a block whose members
   order each other, or a relation row spanning several entry positions —
   the cases the flat path's sparse block partition must get exactly
   right. These programs force them. *)

(* a generator spec with its thread and event classes ×k, the scaling of
   the time-to-verdict benchmark *)
let scaled name k =
  let s = O2_workloads.Synth.find name in
  {
    s with
    O2_workloads.Synth.s_thread_classes =
      s.O2_workloads.Synth.s_thread_classes * k;
    s_event_classes = s.s_event_classes * k;
  }

let parity_on_spec label spec =
  let a =
    Solver.analyze ~policy:(Context.Korigin 1)
      (O2_workloads.Synth.program spec)
  in
  check_parity label a

(* chainstorm ×3: groups of ~450 origins in 3-4 blocks, and a block of
   eight cyclically re-posting chain handlers that all order each other *)
let test_chainstorm_parity () =
  parity_on_spec "chainstorm x3" (scaled "chainstorm" 3)

(* join and signal/wait edges give main several incoming entry positions *)
let test_join_signal_parity () =
  parity_on_spec "hbmix x3"
    { (scaled "hbmix" 3) with s_join = true; s_signal = true }

(* A join ladder: main accesses [x] between successive joins, so its
   occupied entry positions are {0, 2, 4}, and each worker's relation row
   toward main starts in the middle of them — w1/w2 (joined first) and
   w3/w4 share a row and form blocks; v1..v3, spawned after every access
   of main, form a third. v0 is spawned just before main's last access,
   so it differs from them only in the relation main has toward it. The
   idle threads never touch [x], but they make the reach lists of main and
   of the workers longer than the group. *)
let join_ladder () =
  let open O2_ir.Builder in
  let ws = [ "w1"; "w2"; "w3"; "w4" ] and vs = [ "v1"; "v2"; "v3" ] in
  let idle = List.init 12 (Printf.sprintf "i%d") in
  prog ~main:"M"
    [
      cls "Box" ~fields:[ "x" ] [];
      cls "W" ~super:"Thread" ~fields:[ "b" ]
        [
          meth "init" [ "b" ] [ fwrite "this" "b" "b" ];
          meth "run" [] [ fread "d" "this" "b"; fwrite "d" "x" "d"; ret None ];
        ];
      cls "Idle" ~super:"Thread" [ meth "run" [] [ ret None ] ];
      cls "M"
        [
          meth ~static:true "main" []
            ([ new_ "b" "Box" [] ]
            @ List.map (fun w -> new_ w "W" [ "b" ]) (ws @ ("v0" :: vs))
            @ List.map (fun i -> new_ i "Idle" []) idle
            @ List.map start ws
            @ [
                fwrite "b" "x" "b";
                join "w1";
                join "w2";
                fwrite "b" "x" "b";
                join "w3";
                join "w4";
                start "v0";
                fread "r" "b" "x";
              ]
            @ List.map start (vs @ idle));
        ];
    ]

let test_join_ladder_parity () =
  let a = Solver.analyze ~policy:(Context.Korigin 1) (join_ladder ()) in
  (* the shape is really there: main's x accesses sit at three entry
     positions, and some worker access is ordered before a later one of
     them but not an earlier one *)
  let module G = O2_shb.Graph in
  let g = G.build a in
  let xs =
    List.filter
      (fun (n : G.node) ->
        match n.n_kind with
        | G.Read t | G.Write t -> (
            match G.target_of g t with
            | Access.Tfield (_, "x") -> true
            | _ -> false)
        | _ -> false)
      (Array.to_list (G.accesses g))
  in
  (* main is the only origin that reads x *)
  let main_o =
    List.find_map
      (fun (n : G.node) ->
        match n.n_kind with G.Read _ -> Some n.n_origin | _ -> None)
      xs
    |> Option.get
  in
  let mains, others =
    List.partition (fun (n : G.node) -> n.n_origin = main_o) xs
  in
  check_int "main's entry positions" 3
    (List.length
       (List.sort_uniq compare
          (List.map (fun n -> snd (G.hb_interval g n)) mains)));
  Alcotest.(check bool)
    "a row starts between main's entry positions" true
    (List.exists
       (fun a ->
         List.exists (fun b -> not (G.hb g a b)) mains
         && List.exists (fun b -> G.hb g a b) mains)
       others);
  check_parity "join ladder" a

(* ---------------- work scaling ---------------- *)

(* The flat path's HB query count must grow with the program, not with
   the square of its origin count. chainstorm ×1 → ×4 took 171,440 →
   2,575,276 queries (15.0×) when every group built its dense origin-pair
   relation table, and takes 5,448 → 19,464 (3.6×) with the sparse block
   partition. *)
let test_hb_query_scaling () =
  let queries k =
    let a =
      Solver.analyze ~policy:(Context.Korigin 1)
        (O2_workloads.Synth.program (scaled "chainstorm" k))
    in
    let m = O2_util.Metrics.create () in
    let g = O2_shb.Graph.build ~metrics:m a in
    ignore (O2_race.Detect.run ~metrics:m g);
    O2_util.Metrics.get m "shb.hb_queries"
  in
  let q1 = queries 1 and q4 = queries 4 in
  Alcotest.(check bool)
    (Printf.sprintf "shb.hb_queries x1 -> x4: %d -> %d (<= 6x)" q1 q4)
    true
    (q4 <= 6 * q1)

(* ---------------- random programs ---------------- *)

let prop_flat_parity =
  QCheck2.Test.make ~name:"flat pipeline = legacy oracles" ~count:40
    ~print:O2_test_helpers.Gen.print_spec O2_test_helpers.Gen.spec_gen
    (fun spec ->
      let p = O2_test_helpers.Gen.program_of_spec spec in
      let a = Solver.analyze ~policy:(Context.Korigin 1) p in
      let t_o, j_o, c_o, _ = pipeline ~oracle:true a in
      let t_f, j_f, c_f, _ = pipeline ~oracle:false a in
      String.equal t_o t_f && String.equal j_o j_f && c_o = c_f)

(* ---------------- lowering invariants ---------------- *)

let test_flat_check () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let a = Solver.analyze (m.program ()) in
      let fl = a.Solver.flat in
      O2_ir.Flat.check fl;
      Alcotest.(check bool)
        (m.name ^ " footprint")
        true
        (O2_ir.Flat.footprint fl > 0))
    O2_workloads.Models.all

let test_tid_roundtrip () =
  let p = O2_workloads.Synth.program (O2_workloads.Synth.find "zookeeper") in
  let a = Solver.analyze p in
  let fl = a.Solver.flat in
  let n_objs = Pag.n_objs a.Solver.pag in
  (* instance-field tids: oid/fid survive the mixed-radix round trip and
     never collide with the static range *)
  for oid = 0 to min 40 (n_objs - 1) do
    for fid = 0 to O2_ir.Flat.n_fields fl - 1 do
      let tid = O2_ir.Flat.tid_field fl ~oid ~fid in
      Alcotest.(check bool) "field tid dynamic" false
        (O2_ir.Flat.tid_is_static fl tid);
      check_int "tid_oid" oid (O2_ir.Flat.tid_oid fl tid);
      check_int "tid_fid" fid (O2_ir.Flat.tid_fid fl tid)
    done
  done;
  for s = 0 to O2_ir.Flat.n_statics fl - 1 do
    let tid = O2_ir.Flat.tid_static fl s in
    Alcotest.(check bool) "static tid static" true
      (O2_ir.Flat.tid_is_static fl tid)
  done

let () =
  Alcotest.run "flat"
    [
      ( "parity",
        [
          Alcotest.test_case "models x policies" `Quick test_models_parity;
          Alcotest.test_case "zookeeper x jobs" `Quick
            test_zookeeper_parity;
          Alcotest.test_case "chainstorm x3 x jobs" `Quick
            test_chainstorm_parity;
          Alcotest.test_case "join+signal x3 x jobs" `Quick
            test_join_signal_parity;
          Alcotest.test_case "join ladder x jobs" `Quick
            test_join_ladder_parity;
          QCheck_alcotest.to_alcotest prop_flat_parity;
        ] );
      ( "scaling",
        [ Alcotest.test_case "hb queries x1 -> x4" `Quick test_hb_query_scaling ] );
      ( "lowering",
        [
          Alcotest.test_case "Flat.check on corpus" `Quick test_flat_check;
          Alcotest.test_case "tid round trip" `Quick test_tid_roundtrip;
        ] );
    ]
