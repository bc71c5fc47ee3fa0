(* Correctness checks. They run outside every timed region, and each
   reference comes from engines the timed path does not use. *)

open O2_pta

let field_of_target = function
  | Access.Tfield (_, f) -> f
  | Access.Tstatic (c, f) -> c ^ "::" ^ f

(* What a timed analysis leaves behind for checking; the full result is
   dropped right after timing so its heap does not pile up. *)
type summary = {
  text : string;  (** rendered report *)
  sharing : string;  (** rendered origin-sharing table *)
  races : int;
  origins : int;
  fields : string list;  (** racy fields, sorted and deduplicated *)
}

let summarize ~text (r : O2.result) =
  {
    text;
    sharing = Format.asprintf "%a" (O2.pp_sharing r) ();
    races = O2.n_races r;
    origins = O2.n_origins r;
    fields =
      List.sort_uniq compare
        (List.map
           (fun (x : O2_race.Detect.race) -> field_of_target x.r_target)
           (O2.races r));
  }

(* [reference cfg p] is the report of [p] computed by the certification
   engines: [Pta.Oracle] facts (the production solve must fingerprint
   identically) fed through the [~oracle:true] tree-walking SHB, race and
   OSA stages. [Error] when the two solvers disagree on a fact. *)
let reference (cfg : O2.Config.t) p =
  let solver = Solver.analyze ~policy:cfg.policy p in
  let facts = Oracle.fingerprint (Oracle.analyze ~policy:cfg.policy p) in
  if facts <> Solver.fingerprint solver then
    Error "Pta.Oracle facts differ from the solver's"
  else
    let graph =
      O2_shb.Graph.build ~serial_events:cfg.serial_events
        ~lock_region:cfg.lock_region ~oracle:true solver
    in
    let report = O2_race.Detect.run ~oracle:true graph in
    let osa = O2_osa.Osa.run ~oracle:true solver in
    let r =
      {
        O2.config = { cfg with metrics = None; jobs = 1; budget = None };
        solver;
        graph;
        report;
        osa;
        elapsed = 0.0;
      }
    in
    Ok
      (summarize ~text:(O2.render r) r, Array.length (O2_shb.Graph.nodes graph))

(* The generator's known answer for a scaled workload: every seeded racy
   field races, nothing else does, and the race and origin counts do not
   depend on the seed (the class order is all the seed changes). *)
type known = { k_racy : int; k_races : int; k_origins : int }

let expected_fields k =
  List.sort compare (List.init k.k_racy (Printf.sprintf "race%d"))

(* [problems ~known ~reference s] lists why [s] is wrong; [] = correct. *)
let problems ?known ?reference s =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  (match known with
  | None -> ()
  | Some k ->
      if s.races <> k.k_races then err "%d races, expected %d" s.races k.k_races;
      if s.origins <> k.k_origins then
        err "%d origins, expected %d" s.origins k.k_origins;
      if s.fields <> expected_fields k then
        err "racy fields [%s], expected race0..race%d"
          (String.concat " " s.fields) (k.k_racy - 1);
      List.iter
        (fun f ->
          if String.starts_with ~prefix:"lkf" f
             || String.starts_with ~prefix:"priv" f
          then
            err "field %s must never race" f)
        s.fields);
  (match reference with
  | None -> ()
  | Some r ->
      if s.text <> r.text then err "report differs from the oracle report";
      if s.sharing <> r.sharing then
        err "origin-sharing table differs from the oracle's");
  List.rev !errs
