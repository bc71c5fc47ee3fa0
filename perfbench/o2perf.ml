(* Time-to-verdict benchmark for O2.

   o2perf run --workload W --seed N --seconds S --trace 0|1 --out DIR
               [--profile P]
   o2perf selftest

   With --trace 0 the run times what a user waits for — .cir text in
   memory to a rendered report (O2_batch.run over files for the corpus) —
   and prints the end-to-end metrics. With --trace 1 it instead times each
   layer's public entry point from outside, under a span recorder, and
   prints the per-layer metrics. Either way every output is checked after
   the timed region against references the timed path does not compute,
   and the last stdout line is the result object. *)

open O2_workloads

let now = Unix.gettimeofday
let out_dir = ref "_perfbench"
let profile = ref "unknown"

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list (List.sort compare l) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b

let vm_hwm_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let warn fmt = Printf.ksprintf (fun m -> prerr_endline ("o2perf: " ^ m)) fmt

(* ------------------------------------------------------------------ *)
(* workloads *)

type single = {
  spec : Synth.spec;
  twin : Synth.spec;  (** the ×1 spec the scale check compares against *)
  known : Check.known;
}

type kind = Single of single | Corpus of int  (** body programs *)
type workload = { w_name : string; w_kind : kind; w_jobs : int }

let workloads =
  let single ~name ~base ~k ~jobs ~racy ~races ~origins =
    {
      w_name = name;
      w_kind =
        Single
          {
            spec = Gen.scaled base k;
            twin = Gen.scaled base 1;
            known = { Check.k_racy = racy; k_races = races; k_origins = origins };
          };
      w_jobs = jobs;
    }
  in
  [
    (* the ROADMAP reference scale; the PTA does most of the work *)
    single ~name:"zk-x10" ~base:"zookeeper" ~k:10 ~jobs:1 ~racy:10 ~races:20
      ~origins:520;
    (* race detection does ≈90% of the work, the PTA ≈1% *)
    single ~name:"storm-x10" ~base:"chainstorm" ~k:10 ~jobs:1 ~racy:4 ~races:8
      ~origins:188;
    (* the batch path: per-file fixed costs and fan-out across domains *)
    { w_name = "corpus"; w_kind = Corpus 200; w_jobs = 2 };
  ]

let o2_config jobs = { O2.Config.default with jobs }

let batch_config jobs =
  { O2_batch.default with O2_batch.jobs; format = `Text }

(* ------------------------------------------------------------------ *)
(* output *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.9g" v
  else "null"

let json_list vs = "[" ^ String.concat "," (List.map json_number vs) ^ "]"

(* Provenance: one JSON line before the result, so every result can be
   traced to its host, build and input shape. *)
let print_provenance (w : workload) ~seed ~trace fields =
  let nproc = Domain.recommended_domain_count () in
  if nproc < w.w_jobs then
    warn "nproc %d < jobs %d: the parallel figures do not measure real cores"
      nproc w.w_jobs;
  let base =
    [
      ("workload", json_string w.w_name);
      ("seed", string_of_int seed);
      ("trace", string_of_bool trace);
      ("nproc", string_of_int nproc);
      ("jobs", string_of_int w.w_jobs);
      ("nproc_below_jobs", string_of_bool (nproc < w.w_jobs));
      ("ocaml", json_string Sys.ocaml_version);
      ("dune_profile", json_string !profile);
    ]
  in
  print_endline
    ("{\"provenance\":{"
    ^ String.concat ","
        (List.map (fun (k, v) -> json_string k ^ ":" ^ v) (base @ fields))
    ^ "}}")

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name)
          (json_number v) (json_string unit))
      metrics
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed (String.concat "," m)

let report_problems what = function
  | [] -> true
  | errs ->
      List.iter (fun e -> warn "%s: %s" what e) errs;
      false

(* ------------------------------------------------------------------ *)
(* the user's path *)

(* [verdict cfg text] is what `o2 analyze` does once the file is in
   memory: parse, run the pipeline, render the report. *)
let verdict cfg text =
  let p = O2_frontend.Parser.parse_string text in
  let r = O2.run cfg p in
  (r, O2.render r)

(* A median needs a few samples even when the host runs slow; more would
   stretch slow-host runs past the time budget of a full benchmark set. *)
let min_samples = 3

(* Repeated set-ups give [setup_s] a median. Each one generates the
   inputs again and runs one discarded warm-up analysis. *)
let setups = 3

(* ------------------------------------------------------------------ *)
(* self-test of the benchmark itself (cheap: zookeeper ×1) *)

let self_test () =
  let errs = ref [] in
  let expect what ok = if not ok then errs := what :: !errs in
  let spec = Gen.scaled "zookeeper" 1 in
  let known = { Check.k_racy = 10; k_races = 20; k_origins = 52 } in
  let a = Gen.shuffled_text ~seed:7 spec and b = Gen.shuffled_text ~seed:8 spec in
  expect "same seed gives byte-identical input"
    (a = Gen.shuffled_text ~seed:7 spec);
  expect "two seeds give different inputs" (a <> b);
  let c1 = Gen.corpus ~seed:7 ~n:5 and c2 = Gen.corpus ~seed:8 ~n:5 in
  expect "same seed gives byte-identical corpus" (c1 = Gen.corpus ~seed:7 ~n:5);
  expect "two seeds give different corpora" (c1 <> c2);
  let cfg = o2_config 1 in
  let summary text =
    let r, s = verdict cfg text in
    Check.summarize ~text:s r
  in
  let sa = summary a and sb = summary b in
  expect "both seeds meet the known answer"
    (Check.problems ~known sa = [] && Check.problems ~known sb = []);
  expect "race and origin counts agree across seeds"
    (sa.races = sb.races && sa.origins = sb.origins && sa.fields = sb.fields);
  (match Check.reference cfg (O2_frontend.Parser.parse_string a) with
  | Error e -> expect e false
  | Ok (reference, _) ->
      expect "the oracle reference accepts the timed report"
        (Check.problems ~known ~reference sa = []);
      (* drop the report's first race: its "RACE on" line and the access
         lines up to the blank line that ends it *)
      let dropped = ref false and inside = ref false in
      let text =
        String.concat "\n"
          (List.filter
             (fun l ->
               if (not !dropped) && String.starts_with ~prefix:"RACE on" l then
                 inside := true;
               if !inside && l = "" then (inside := false; dropped := true);
               not !inside)
             (String.split_on_char '\n' sa.text))
      in
      expect "the report has a race to drop" !dropped;
      expect "a report with one race dropped fails"
        (Check.problems ~reference { sa with text } <> []);
      expect "a result with one race dropped fails the known answer"
        (Check.problems ~known { sa with races = sa.races - 1 } <> []));
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* timed runs (--trace 0) *)

let e2e ~verdicts ~per_s ~rss ~setup =
  [
    ("verdict_s", "s", verdicts);
    ("programs_per_s", "1/s", per_s);
    ("peak_rss_mb", "MB", rss);
    ("setup_s", "s", setup);
  ]

let timed_single w s ~seed ~seconds =
  let cfg = o2_config w.w_jobs in
  let text = ref "" in
  let setup =
    List.init setups (fun _ ->
        snd
          (time (fun () ->
               text := Gen.shuffled_text ~seed s.spec;
               ignore (verdict cfg !text))))
  in
  let text = !text in
  (* each sample starts from a compacted heap, as a fresh `o2 analyze`
     process would; compaction is outside the timed interval *)
  let samples = ref [] in
  let t_start = now () in
  while now () -. t_start < seconds || List.length !samples < min_samples do
    Gc.compact ();
    let t0 = now () in
    let out = try Ok (verdict cfg text) with e -> Error e in
    let dt = now () -. t0 in
    let out =
      match out with
      | Ok (r, txt) -> Ok (Check.summarize ~text:txt r)
      | Error e -> Error (Printexc.to_string e)
    in
    samples := (dt, out) :: !samples
  done;
  let rss = vm_hwm_mb () in
  let samples = List.rev !samples in
  (* checks, outside the timed region *)
  let self_ok = report_problems "self-test" (self_test ()) in
  let p = O2_frontend.Parser.parse_string text in
  let reference = Check.reference cfg p in
  let ref_ok, shb_nodes =
    match reference with
    | Error e -> (report_problems "reference" [ e ], 0)
    | Ok (r, nodes) ->
        ( report_problems "oracle reference" (Check.problems ~known:s.known r),
          nodes )
  in
  let failed =
    List.length
      (List.filter
         (fun (_, out) ->
           match (out, reference) with
           | Error e, _ -> report_problems "analysis" [ e ] |> not
           | Ok _, Error _ -> true
           | Ok sm, Ok (reference, _) ->
               not
                 (report_problems "timed report"
                    (Check.problems ~known:s.known ~reference sm)))
         samples)
  in
  let times = List.map fst samples in
  (* one sample is a one-program pass: its rate is 1/dt if it ended Ok *)
  let per_s =
    List.map (fun (dt, out) -> if Result.is_ok out then 1.0 /. dt else 0.0) samples
  in
  print_provenance w ~seed ~trace:false
    [
      ("samples", string_of_int (List.length samples));
      ("sample_s", json_list times);
      ("origins", string_of_int s.known.k_origins);
      ("cir_bytes", string_of_int (String.length text));
      ("shb_nodes", string_of_int shb_nodes);
    ];
  print_result
    ~correct:(self_ok && ref_ok && failed = 0)
    ~attempted:(List.length samples) ~failed
    (e2e ~verdicts:(median times) ~per_s:(median per_s) ~rss
       ~setup:(median setup))

(* Reference checks for corpus files. Body files go through the oracle
   engines; the fixed heavy tail is too slow for them (the oracle race
   loop would add ≈20 s a run), so each heavy file must reproduce its
   known race count, which the class shuffle cannot change. *)
let heavy_races = [ ("storm0.cir", 12); ("storm1.cir", 764) ]

let corpus_references files paths =
  List.map2
    (fun (f : Gen.file) path ->
      if f.heavy then (f.name, `Races (List.assoc f.name heavy_races))
      else
        (* reports cite positions by file name: parse under the same one *)
        match
          Check.reference (o2_config 1)
            (O2_frontend.Parser.parse_string ~file:path f.text)
        with
        | Ok (r, _) -> (f.name, `Report r.Check.text)
        | Error e -> (f.name, `Broken e))
    files paths

let check_file refs ~name ~races ~report =
  match List.assoc_opt name refs with
  | None -> [ name ^ ": no reference" ]
  | Some (`Broken m) -> [ name ^ ": " ^ m ]
  | Some (`Report r) ->
      if report = r then [] else [ name ^ ": report differs from the oracle's" ]
  | Some (`Races n) ->
      if races = n then []
      else [ Printf.sprintf "%s: %d races, expected %d" name races n ]

let check_entry refs (e : O2_batch.entry) =
  let name = Filename.basename e.e_file in
  match e.e_status with
  | `Error m | `Timeout m -> [ name ^ ": " ^ m ]
  | `Ok -> check_file refs ~name ~races:e.e_races ~report:e.e_report

let corpus_setup ~seed ~n =
  let files = Gen.corpus ~seed ~n in
  let paths = Gen.write_files (Filename.concat !out_dir "corpus") files in
  (files, paths)

let timed_corpus w n ~seed ~seconds =
  let cfg = batch_config w.w_jobs in
  let inputs = ref ([], []) in
  let setup =
    List.init setups (fun _ ->
        snd
          (time (fun () ->
               let files, paths = corpus_setup ~seed ~n in
               inputs := (files, paths);
               (* warm-up: one pass over the body, not the 16 s tail *)
               ignore (O2_batch.run cfg (List.filteri (fun i _ -> i < n) paths))
           )))
  in
  let files, paths = !inputs in
  let passes = ref [] in
  let t_start = now () in
  while now () -. t_start < seconds || !passes = [] do
    Gc.compact ();
    let rep, dt = time (fun () -> O2_batch.run cfg paths) in
    passes := (dt, rep) :: !passes
  done;
  let rss = vm_hwm_mb () in
  let passes = List.rev !passes in
  let self_ok = report_problems "self-test" (self_test ()) in
  let refs = corpus_references files paths in
  let failed =
    List.fold_left
      (fun acc (_, (rep : O2_batch.report)) ->
        acc
        + List.length
            (List.filter
               (fun e -> not (report_problems "corpus" (check_entry refs e)))
               rep.b_entries))
      0 passes
  in
  let per_s =
    List.map
      (fun (dt, (rep : O2_batch.report)) ->
        float (List.length rep.b_entries - O2_batch.n_failed rep) /. dt)
      passes
  in
  print_provenance w ~seed ~trace:false
    [
      ("passes", string_of_int (List.length passes));
      ("pass_s", json_list (List.map fst passes));
      ("files", string_of_int (List.length paths));
      ( "cir_bytes",
        string_of_int
          (List.fold_left
             (fun a (f : Gen.file) -> a + String.length f.text)
             0 files) );
    ];
  print_result ~correct:(self_ok && failed = 0)
    ~attempted:(List.length passes * List.length paths)
    ~failed
    (e2e ~verdicts:(median (List.map fst passes)) ~per_s:(median per_s) ~rss
       ~setup:(median setup))

(* ------------------------------------------------------------------ *)
(* traced runs (--trace 1) *)

(* Per-layer profile of one or more analysed programs: span durations and
   GC deltas per layer, plus the pipeline's own counters. *)
type profile = {
  dur : (string, float) Hashtbl.t;
  minor : (string, float) Hashtbl.t;
  major : (string, int) Hashtbl.t;
  counters : O2_util.Metrics.t;  (** counters and phase timers, summed *)
  mutable bytes : int;
  mutable footprint : int;
  mutable shared_accesses : int;
}

let new_profile () =
  {
    dur = Hashtbl.create 16;
    minor = Hashtbl.create 16;
    major = Hashtbl.create 16;
    counters = O2_util.Metrics.create ();
    bytes = 0;
    footprint = 0;
    shared_accesses = 0;
  }

let layers = [ "frontend"; "ir"; "pta"; "shb"; "race"; "osa"; "report" ]
let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0
let geti tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0

(* [traced_request tr cfg text] analyses [text] once with a span around
   every layer call, returns the per-request profile and the summary for
   checking. Detection and the solve use [cfg.jobs]. *)
let traced_request tr cfg ?file text =
  let m = O2_util.Metrics.create () in
  let pr = new_profile () in
  pr.bytes <- String.length text;
  let sp name f = Trace.span tr name f in
  let r, rendered =
    Trace.request tr (fun () ->
        let r, rendered =
          sp "verdict" (fun () ->
              let p =
                sp "frontend" (fun () ->
                    O2_frontend.Parser.parse_string ?file text)
              in
              let solver =
                sp "pta" (fun () ->
                    O2_pta.Solver.analyze ~policy:cfg.O2.Config.policy
                      ~jobs:cfg.jobs ~metrics:m p)
              in
              let graph =
                sp "shb" (fun () ->
                    O2_shb.Graph.build ~serial_events:cfg.serial_events
                      ~lock_region:cfg.lock_region ~metrics:m solver)
              in
              let report =
                sp "race" (fun () ->
                    O2_race.Detect.run ~metrics:m ~jobs:cfg.jobs graph)
              in
              let osa = sp "osa" (fun () -> O2_osa.Osa.run ~metrics:m solver) in
              let r =
                { O2.config = cfg; solver; graph; report; osa; elapsed = 0.0 }
              in
              (r, sp "report" (fun () -> O2.render r)))
        in
        let fl = sp "ir" (fun () -> O2_ir.Flat.lower r.O2.solver.program) in
        pr.footprint <- O2_ir.Flat.footprint fl;
        (r, rendered))
  in
  (* fold this request's spans into the profile *)
  List.iter
    (fun (s : Trace.span) ->
      if s.request = tr.Trace.request then begin
        Hashtbl.replace pr.dur s.name (get pr.dur s.name +. Trace.duration s);
        Hashtbl.replace pr.minor s.name (get pr.minor s.name +. s.minor_words);
        Hashtbl.replace pr.major s.name
          (geti pr.major s.name + s.major_gcs)
      end)
    (Trace.spans tr);
  O2_util.Metrics.merge ~into:pr.counters m;
  pr.shared_accesses <-
    List.fold_left
      (fun a (sh : O2_osa.Osa.sharing) ->
        a + List.length sh.sh_readers + List.length sh.sh_writers)
      0 (O2.shared_locations r);
  (pr, Check.summarize ~text:rendered r)

(* Sum of several profiles (a corpus pass). *)
let sum_profiles ps =
  let acc = new_profile () in
  List.iter
    (fun p ->
      let add tbl src =
        Hashtbl.iter (fun k v -> Hashtbl.replace tbl k (get tbl k +. v)) src
      in
      add acc.dur p.dur;
      add acc.minor p.minor;
      Hashtbl.iter
        (fun k v -> Hashtbl.replace acc.major k (geti acc.major k + v))
        p.major;
      O2_util.Metrics.merge ~into:acc.counters p.counters;
      acc.bytes <- acc.bytes + p.bytes;
      acc.footprint <- acc.footprint + p.footprint;
      acc.shared_accesses <- acc.shared_accesses + p.shared_accesses)
    ps;
  acc

(* The profile whose verdict is the median of several requests. *)
let median_profile ps =
  let verdict p = get p.dur "verdict" in
  let sorted = List.sort (fun a b -> compare (verdict a) (verdict b)) ps in
  List.nth sorted (List.length sorted / 2)

let cnt p k = float (O2_util.Metrics.get p.counters k)
let norm_iter p = ratio (get p.dur "pta" *. 1e9) (cnt p "pta.worklist_iters")
let norm_node p = ratio (get p.dur "shb" *. 1e9) (cnt p "shb.nodes")
let norm_pair p = ratio (get p.dur "race" *. 1e6) (cnt p "race.pairs_checked")

type batch_figures = {
  p50 : float;
  tail : float;
  busy : float;
  miss : float;
  hit : float;
}

(* A cold batch pass that writes a result cache, then a warm pass that
   reads it. *)
let batch_passes cfg paths =
  let cache = Filename.concat !out_dir "batch.cache" in
  if Sys.file_exists cache then Sys.remove cache;
  let cfg = { cfg with O2_batch.cache_file = Some cache } in
  Gc.compact ();
  let cold, miss = time (fun () -> O2_batch.run cfg paths) in
  let warm, hit = time (fun () -> O2_batch.run cfg paths) in
  let elapsed =
    List.map (fun (e : O2_batch.entry) -> e.e_elapsed) cold.b_entries
  in
  let jobs = max 1 (min cfg.jobs (List.length paths)) in
  (* the warm pass must serve every file from the cache, unchanged *)
  let ok =
    O2_batch.n_failed cold = 0
    && List.for_all2
         (fun (c : O2_batch.entry) (h : O2_batch.entry) ->
           h.e_cached && h.e_report = c.e_report)
         cold.b_entries warm.b_entries
  in
  ( {
      p50 = median elapsed;
      tail = List.fold_left max 0.0 elapsed;
      busy = List.fold_left ( +. ) 0.0 elapsed /. (float jobs *. miss);
      miss;
      hit;
    },
    ok )

(* Stage time at jobs=1 divided by stage time at jobs=2 on one program,
   median of [reps] runs each. *)
let parallel_speedups ?(reps = 2) cfg p =
  let stage jobs =
    let pta =
      List.init reps (fun _ ->
          Gc.compact ();
          snd
            (time (fun () ->
                 O2_pta.Solver.analyze ~policy:cfg.O2.Config.policy ~jobs p)))
    in
    let solver = O2_pta.Solver.analyze ~policy:cfg.policy p in
    let g =
      O2_shb.Graph.build ~serial_events:cfg.serial_events
        ~lock_region:cfg.lock_region solver
    in
    let race =
      List.init reps (fun _ ->
          Gc.compact ();
          snd (time (fun () -> O2_race.Detect.run ~jobs g)))
    in
    (median pta, median race)
  in
  let p1, r1 = stage 1 and p2, r2 = stage 2 in
  (ratio p1 p2, ratio r1 r2)

(* [growth = (big, small)]: the scale check divides [big]'s normalised
   costs by [small]'s. *)
let layer_metrics ~main ~growth:(big, small) ~batch ~par ~traced ~untraced =
  let p = main in
  let s name = get p.dur name in
  let in_verdict =
    List.fold_left (fun a l -> if l = "ir" then a else a +. s l) 0.0 layers
  in
  let pta_s = s "pta" and shb_s = s "shb" and race_s = s "race" in
  let pairs = cnt p "race.pairs_checked" in
  let timer k = O2_util.Metrics.get_time p.counters k in
  let pta_speedup, race_speedup = par in
  [
    ("frontend.parse_s", "s", s "frontend");
    ( "frontend.us_per_kb",
      "us/KB",
      ratio (s "frontend" *. 1e6) (float p.bytes /. 1024.0) );
    ("ir.lower_s", "s", s "ir");
    ("ir.footprint_words", "words", float p.footprint);
    ("pta.solve_s", "s", pta_s);
    ("pta.worklist_iters", "count", cnt p "pta.worklist_iters");
    ("pta.ns_per_iter", "ns", norm_iter p);
    ("pta.pts_facts", "count", cnt p "pta.pts_facts");
    ("pta.scc_collapsed", "count", cnt p "pta.scc_collapsed");
    ("pta.flush_s", "s", timer "pta.flush");
    ("pta.propagate_s", "s", timer "pta.propagate");
    ("pta.apply_s", "s", timer "pta.apply");
    ("pta.describe_s", "s", timer "pta.describe");
    ("pta.scc_s", "s", timer "pta.scc");
    ("pta.icg_s", "s", timer "pta.icg");
    ("shb.build_s", "s", shb_s);
    ("shb.nodes", "count", cnt p "shb.nodes");
    ("shb.ns_per_node", "ns", norm_node p);
    ("race.detect_s", "s", race_s);
    ("race.pairs_checked", "count", pairs);
    ("race.us_per_pair", "us", norm_pair p);
    ("race.hb_queries", "count", cnt p "shb.hb_queries");
    ( "race.survive_ratio",
      "ratio",
      ratio (pairs -. cnt p "race.hb_pruned" -. cnt p "race.lock_pruned") pairs );
    ("osa.scan_s", "s", s "osa");
    ("osa.shared_accesses", "count", float p.shared_accesses);
    ("report.render_s", "s", s "report");
    ("batch.file_p50_s", "s", batch.p50);
    ("batch.tail_s", "s", batch.tail);
    ("batch.busy_frac", "ratio", batch.busy);
    ("batch.cache_miss_s", "s", batch.miss);
    ("batch.cache_hit_s", "s", batch.hit);
    ("par.pta_speedup", "ratio", pta_speedup);
    ("par.race_speedup", "ratio", race_speedup);
    ("race.us_per_pair_growth", "ratio", ratio (norm_pair big) (norm_pair small));
    ("pta.ns_per_iter_growth", "ratio", ratio (norm_iter big) (norm_iter small));
    ("shb.ns_per_node_growth", "ratio", ratio (norm_node big) (norm_node small));
    ("trace.verdict_s", "s", traced);
    ("trace.overhead_s", "s", traced -. untraced);
    (* share of the verdict span covered by the layer spans inside it *)
    ("trace.coverage", "ratio", ratio in_verdict (s "verdict"));
    ("verdict.self_s", "s", s "verdict" -. in_verdict);
  ]
  @ List.concat_map
      (fun l ->
        [
          (l ^ ".minor_mw", "MW", get p.minor l /. 1e6);
          ( l ^ ".major_gcs",
            "count",
            float (geti p.major l) );
        ])
      layers

let trace_file w ~seed =
  Filename.concat !out_dir (Printf.sprintf "trace-%s-%d.json" w.w_name seed)

let requests = 3

let traced_single w s ~seed =
  let cfg = o2_config w.w_jobs in
  let text = Gen.shuffled_text ~seed s.spec in
  let twin_text = Gen.shuffled_text ~seed s.twin in
  ignore (verdict cfg text);
  let tr = Trace.create () in
  let run_traced text =
    List.init requests (fun _ ->
        Gc.compact ();
        traced_request tr cfg text)
  in
  let mains = run_traced text in
  let untraced =
    List.init requests (fun _ ->
        Gc.compact ();
        snd (time (fun () -> verdict cfg text)))
  in
  ignore (verdict cfg twin_text);
  let twins = run_traced twin_text in
  let main = median_profile (List.map fst mains) in
  let twin = median_profile (List.map fst twins) in
  let p = O2_frontend.Parser.parse_string text in
  let par = parallel_speedups cfg p in
  let path = Filename.concat !out_dir (w.w_name ^ ".cir") in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let batch, batch_ok = batch_passes (batch_config w.w_jobs) [ path ] in
  Trace.write tr (trace_file w ~seed);
  (* checks *)
  let self_ok = report_problems "self-test" (self_test ()) in
  let reference = Check.reference cfg p in
  let failed =
    List.length
      (List.filter
         (fun (_, sm) ->
           match reference with
           | Error e -> not (report_problems "reference" [ e ])
           | Ok (reference, _) ->
               not
                 (report_problems "traced report"
                    (Check.problems ~known:s.known ~reference sm)))
         mains)
  in
  let twin_failed =
    match Check.reference cfg (O2_frontend.Parser.parse_string twin_text) with
    | Error e -> not (report_problems "twin reference" [ e ])
    | Ok (reference, _) ->
        List.exists
          (fun (_, sm) ->
            not (report_problems "twin report" (Check.problems ~reference sm)))
          twins
  in
  print_provenance w ~seed ~trace:true
    [
      ("requests", string_of_int requests);
      ("origins", string_of_int s.known.k_origins);
      ("cir_bytes", string_of_int (String.length text));
      ("shb_nodes", json_number (cnt main "shb.nodes"));
      ("trace_file", json_string (trace_file w ~seed));
    ];
  print_result
    ~correct:(self_ok && failed = 0 && (not twin_failed) && batch_ok)
    ~attempted:(List.length mains + List.length twins)
    ~failed:(failed + if twin_failed then 1 else 0)
    (layer_metrics ~main ~growth:(main, twin) ~batch ~par
       ~traced:(get main.dur "verdict") ~untraced:(median untraced))

let traced_corpus w n ~seed =
  let bcfg = batch_config w.w_jobs in
  let files, paths = corpus_setup ~seed ~n in
  ignore (O2_batch.run bcfg (List.filteri (fun i _ -> i < n) paths));
  let batch, batch_ok = batch_passes bcfg paths in
  (* per-file layer spans, serial: one request per file *)
  let cfg = o2_config 1 in
  let tr = Trace.create () in
  let traced =
    List.map2
      (fun (f : Gen.file) path -> (f, traced_request tr cfg ~file:path f.text))
      files paths
  in
  (* tracing overhead on the body; the tail would add 16 s to the run *)
  let untraced =
    snd
      (time (fun () ->
           List.iter
             (fun (f : Gen.file) -> if not f.heavy then ignore (verdict cfg f.text))
             files))
  in
  let profile_of keep =
    sum_profiles
      (List.filter_map
         (fun ((f : Gen.file), (p, _)) -> if keep f then Some p else None)
         traced)
  in
  let main = profile_of (fun _ -> true) in
  (* the corpus's scale check: the storm-heavy tail against the body *)
  let heavy = profile_of (fun f -> f.heavy) in
  let body = profile_of (fun f -> not f.heavy) in
  let largest =
    List.fold_left
      (fun (a : Gen.file) (f : Gen.file) ->
        if (not f.heavy) && String.length f.text > String.length a.text then f
        else a)
      (List.hd files) files
  in
  let par =
    parallel_speedups cfg (O2_frontend.Parser.parse_string largest.text)
  in
  Trace.write tr (trace_file w ~seed);
  let self_ok = report_problems "self-test" (self_test ()) in
  let refs = corpus_references files paths in
  let failed =
    List.length
      (List.filter
         (fun ((f : Gen.file), (_, (sm : Check.summary))) ->
           not
             (report_problems "traced corpus"
                (check_file refs ~name:f.name ~races:sm.races ~report:sm.text)))
         traced)
  in
  print_provenance w ~seed ~trace:true
    [
      ("files", string_of_int (List.length files));
      ("cir_bytes", string_of_int main.bytes);
      ("shb_nodes", json_number (cnt main "shb.nodes"));
      ("trace_file", json_string (trace_file w ~seed));
    ];
  print_result
    ~correct:(self_ok && failed = 0 && batch_ok)
    ~attempted:(List.length files) ~failed
    (layer_metrics ~main ~growth:(heavy, body) ~batch ~par
       ~traced:(get body.dur "verdict") ~untraced)

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: o2perf run --workload W --seed N --seconds S --trace 0|1\n\
    \                  [--out DIR] [--profile P]\n\
    \       o2perf selftest";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "selftest" ] -> (
      match self_test () with
      | [] -> print_endline "o2perf self-test: ok"
      | errs ->
          List.iter (fun e -> prerr_endline ("o2perf self-test FAILED: " ^ e))
            errs;
          exit 1)
  | "run" :: rest ->
      let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
      let trace = ref (-1) in
      let rec parse = function
        | "--workload" :: v :: r -> workload := v; parse r
        | "--seed" :: v :: r -> seed := int_of_string v; parse r
        | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
        | "--trace" :: v :: r -> trace := int_of_string v; parse r
        | "--out" :: v :: r -> out_dir := v; parse r
        | "--profile" :: v :: r -> profile := v; parse r
        | [] -> ()
        | _ -> usage ()
      in
      (try parse rest with Failure _ -> usage ());
      let w =
        match List.find_opt (fun w -> w.w_name = !workload) workloads with
        | Some w -> w
        | None -> usage ()
      in
      if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then
        usage ();
      if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
      (match (w.w_kind, !trace) with
      | Single s, 0 -> timed_single w s ~seed:!seed ~seconds:!seconds
      | Single s, _ -> traced_single w s ~seed:!seed
      | Corpus n, 0 -> timed_corpus w n ~seed:!seed ~seconds:!seconds
      | Corpus n, _ -> traced_corpus w n ~seed:!seed)
  | _ -> usage ()
