(* Workload inputs: every byte the analysis sees is generated here from the
   run's seed, so the same seed always gives the same inputs. *)

open O2_workloads

(* [scaled name k] multiplies the thread and event classes of a named
   generator spec by [k]; everything else (helper depth, racy fields, …)
   stays as in the ×1 spec, so the known answer below does not move. *)
let scaled name k =
  let s = Synth.find name in
  {
    s with
    Synth.s_thread_classes = s.Synth.s_thread_classes * k;
    s_event_classes = s.Synth.s_event_classes * k;
  }

(* The seed shuffles the class declaration order. That changes the report
   bytes (object ids follow declaration order) but not the races, the
   origins or the set of racy fields — which is why correctness is checked
   per seed, never against a digest committed from one seed.

   The main class is always declared first. Race detection is sensitive to
   its position: on chainstorm ×10 a run takes 1.85-1.91 s whenever main
   is not the last class and 1.54-1.66 s when it is (the generator's own
   order), with identical work counters. Pinning it keeps that layout
   effect from turning the seed into a two-valued cost, and pins the slow
   layout so the effect stays visible. *)
let shuffled_text ~seed spec =
  let text = O2_ir.Pp.program_to_string (Synth.program spec) in
  let d = O2_frontend.Parser.parse_decls ~file:spec.Synth.s_name text in
  let main, others =
    List.partition
      (fun (c : O2_ir.Ast.class_decl) -> c.cd_name = d.pd_main)
      d.pd_classes
  in
  let classes = Array.of_list others in
  let st = Random.State.make [| seed; Hashtbl.hash spec.Synth.s_name |] in
  for i = Array.length classes - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let c = classes.(i) in
    classes.(i) <- classes.(j);
    classes.(j) <- c
  done;
  Format.asprintf "%a" O2_ir.Pp.pp_program_decl
    { d with pd_classes = main @ Array.to_list classes }

(* ---- the corpus ---- *)

(* Posts per program: event classes × posts per event instance. Race
   detection cost grows superlinearly in it (≈0.5 s at 1000, ≈8 s at
   3000-3900 on one core), and the fuzzer's generator draws a value
   above [heavy_posts] for 1-3% of programs. *)
let posts (s : Synth.spec) = s.s_event_classes * s.s_storm
let heavy_posts = 400

(* The storm-heavy tail: the two ≈8 s programs of the seed-1, 200-program
   reference draw (indices 89 and 169). A per-seed draw of the tail makes
   throughput a property of the draw rather than of the code — over seeds
   1-8 the heavy files of 200 draws summed to anything from 1.1 s to
   16.7 s — so the tail is fixed and only its class order follows the
   seed, while the body is drawn per seed. *)
let heavy_tail = [ 89; 169 ]

type file = { name : string; text : string; heavy : bool }

(* [corpus ~seed ~n] is the first [n] programs of the seed's generator
   stream with at most [heavy_posts] posts, followed by the fixed heavy
   tail. File names sort body first, so [O2_batch.run] reaches the tail
   last — the schedule where one slow file stalls the pass. *)
let corpus ~seed ~n =
  let rec body acc i k =
    if k = n then List.rev acc
    else
      let s = Synth.spec_of_seed ~seed ~index:i in
      if posts s > heavy_posts then body acc (i + 1) k
      else
        let f =
          {
            name = Printf.sprintf "prog%04d.cir" k;
            text = O2_ir.Pp.program_to_string (Synth.program s);
            heavy = false;
          }
        in
        body (f :: acc) (i + 1) (k + 1)
  in
  let tail =
    List.mapi
      (fun k index ->
        {
          name = Printf.sprintf "storm%d.cir" k;
          text = shuffled_text ~seed (Synth.spec_of_seed ~seed:1 ~index);
          heavy = true;
        })
      heavy_tail
  in
  body [] 0 0 @ tail

(* [write_files dir files] replaces [dir]'s contents with [files] and
   returns their paths in order. *)
let write_files dir files =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755;
  List.map
    (fun f ->
      let path = Filename.concat dir f.name in
      Out_channel.with_open_bin path (fun oc -> output_string oc f.text);
      path)
    files
