open O2_pta
open O2_shb
module Inttbl = O2_util.Inttbl

type race = {
  r_target : Access.target;
  r_a : Graph.node;
  r_b : Graph.node;
}

type report = {
  races : race list;
  n_pairs_checked : int;
  n_hb_pruned : int;
  n_lock_pruned : int;
  n_class_pruned : int;
}

let field_of_target = function
  | Access.Tfield (_, f) -> f
  | Access.Tstatic (c, f) -> c ^ "::" ^ f

let dedup_key r =
  let a = r.r_a.Graph.n_sid and b = r.r_b.Graph.n_sid in
  ((min a b, max a b), field_of_target r.r_target)

let n_races report =
  List.map dedup_key report.races |> List.sort_uniq compare |> List.length

let is_write (n : Graph.node) =
  match n.Graph.n_kind with Graph.Write _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* origin blocks and equivalence classes *)

(* The hybrid check sees a node of one target group only through its
   origin's self-parallelism, its canonical lockset id, its access kind,
   its HB interval ({!Graph.hb_interval}), and the closure relations of
   its origin. Origins whose relations are indistinguishable inside the
   group — identical occupied intervals, one shared relation matrix
   between every ordered pair of them, identical relations toward every
   other origin of the group — form a *block*: e.g. a farm of worker
   threads all spawned alike. Nodes are then classed by
   (block, HB interval, lockset, is-write): one check per class pair
   decides every member pair, with same-origin member pairs inside a
   block accounted combinatorially (they are candidates only under
   self-parallelism, exactly as in the pairwise loop), so the reported
   races and the total pair accounting stay identical while
   [n_pairs_checked] drops from O(n²) to O(classes²). *)

type oinfo = {
  o_id : int;
  o_self_par : bool;
  o_ts : int array;  (* sorted distinct t_idx of the origin's group nodes *)
  o_qs : int array;  (* sorted distinct q_idx of the origin's group nodes *)
}

type block = {
  bk_members : oinfo array;  (* insertion (= first-node) order *)
  bk_self_par : bool;
}

type cls = {
  c_nodes : Graph.node array;  (* members, id-ascending *)
  c_block : int;
  c_t : int;
  c_q : int;
  c_ls : int;
  c_write : bool;
  c_by_origin : (int, int) Hashtbl.t;  (* origin -> member count *)
}

(* the detection run's accumulator; races are sorted and deduplicated at
   the end *)
type acc = {
  mutable a_races : race list;
  mutable a_pairs : int;
  mutable a_hb : int;
  mutable a_lock : int;
  mutable a_cls : int;
}

(* [tb]/[qb]/[nls] are the packing bounds for the int class keys: exclusive
   upper bounds of HB intervals ({!Graph.interval_bounds}) and of canonical
   lockset ids. *)
(* [ostamp] (over origins, stamped with the group ordinal [gi]), [olocal]
   (over origins, a member's index in the group, valid where stamped) and
   [ivl] (a node-id-indexed interval memo, packed [1 + t*qb + q], 0 =
   unset) are scratch arrays shared by every group of the run — per-group
   hash tables on these hot paths cost more than the group work itself. *)
let check_group g ~tb ~qb ~nls ~ostamp ~olocal ~ivl ~gi acc target
    (ns : Graph.node list) =
  (* quick origin-sharing filter: skip single-origin or read-only groups *)
  let n_origins = ref 0 and first_origin = ref (-1) in
  List.iter
    (fun (n : Graph.node) ->
      if ostamp.(n.Graph.n_origin) <> gi then begin
        ostamp.(n.Graph.n_origin) <- gi;
        if !n_origins = 0 then first_origin := n.Graph.n_origin;
        incr n_origins
      end)
    ns;
  let has_write = List.exists is_write ns in
  let single_origin_ok =
    !n_origins = 1 && not (Graph.self_parallel g !first_origin)
  in
  if has_write && not single_origin_ok then begin
    let locks = Graph.locks g in
    let interval (n : Graph.node) =
      let c = ivl.(n.Graph.n_id) in
      if c <> 0 then ((c - 1) / qb, (c - 1) mod qb)
      else begin
        let ((t, q) as tq) = Graph.hb_interval g n in
        ivl.(n.Graph.n_id) <- 1 + (t * qb) + q;
        tq
      end
    in
    (* per-origin occupancy, first-seen (= id) order *)
    let by_origin = Hashtbl.create 8 and origin_order = ref [] in
    List.iter
      (fun (n : Graph.node) ->
        match Hashtbl.find_opt by_origin n.Graph.n_origin with
        | Some l -> l := n :: !l
        | None ->
            Hashtbl.add by_origin n.Graph.n_origin (ref [ n ]);
            origin_order := n.Graph.n_origin :: !origin_order)
      ns;
    let oinfos =
      List.rev_map
        (fun o ->
          let members = List.rev !(Hashtbl.find by_origin o) in
          let distinct proj =
            List.map proj members |> List.sort_uniq compare |> Array.of_list
          in
          {
            o_id = o;
            o_self_par = Graph.self_parallel g o;
            o_ts = distinct (fun n -> fst (interval n));
            o_qs = distinct (fun n -> snd (interval n));
          })
        !origin_order
      |> List.rev
    in
    let hb_state ~src ~t_idx ~dst ~q_idx =
      Graph.hb_state g ~src ~t_idx ~dst ~q_idx
    in
    let oarr = Array.of_list oinfos in
    let m = Array.length oarr in
    Array.iteri (fun i u -> olocal.(u.o_id) <- i) oarr;
    (* The relation matrix rel(u,v) holds the hb_state answers from u's
       occupied thresholds to v's occupied entry positions. hb_state is
       monotone in q_idx, so each row is a suffix of v.o_qs, described by
       the index where it starts (Array.length v.o_qs: all-zero). *)
    let row_start ~(u : oinfo) ~ti ~(v : oinfo) =
      let lo = ref 0 and hi = ref (Array.length v.o_qs) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if
          hb_state ~src:u.o_id ~t_idx:u.o_ts.(ti) ~dst:v.o_id
            ~q_idx:v.o_qs.(mid)
        then hi := mid
        else lo := mid + 1
      done;
      !lo
    in
    (* The closure is sparse, so nearly every matrix is all-zero: only the
       nonzero rows are gathered, by intersecting each member's reach lists
       ({!Graph.hb_reach}) with the group — scanning a list no longer than
       the group against the origin stamps, or else looking each member up
       in it by binary search. The nonzero row of rel(a,b) at a's [ti]-th
       occupied threshold, starting at [s], is the int entry [enc b ti s]
       on a's out-list and [enc a ti s] on b's in-list; each list also sums
       a commutative hash signature of its entries. *)
    let enc x ti s = (((x * tb) + ti) * qb) + s in
    let mix e =
      let e = (e + 1) * 0x2545F4914F6CDD1D in
      let e = (e lxor (e lsr 31)) * 0x1CE4E5B9BF58476D in
      e lxor (e lsr 29)
    in
    let outs = Array.make m [] and ins = Array.make m [] in
    let out_sig = Array.make m 0 and in_sig = Array.make m 0 in
    let reaches (reach : int array) o =
      let lo = ref 0 and hi = ref (Array.length reach) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if reach.(mid) < o then lo := mid + 1 else hi := mid
      done;
      !lo < Array.length reach && reach.(!lo) = o
    in
    Array.iteri
      (fun a (u : oinfo) ->
        Array.iteri
          (fun ti t ->
            let row b =
              let v = oarr.(b) in
              let s = row_start ~u ~ti ~v in
              if s < Array.length v.o_qs then begin
                let eo = enc b ti s and ei = enc a ti s in
                outs.(a) <- eo :: outs.(a);
                ins.(b) <- ei :: ins.(b);
                out_sig.(a) <- out_sig.(a) + mix eo;
                in_sig.(b) <- in_sig.(b) + mix ei
              end
            in
            let reach = Graph.hb_reach g ~src:u.o_id ~t_idx:t in
            if Array.length reach <= m then
              Array.iter
                (fun dst -> if ostamp.(dst) = gi then row olocal.(dst))
                reach
            else
              Array.iteri
                (fun b (v : oinfo) -> if reaches reach v.o_id then row b)
                oarr)
          u.o_ts)
      oarr;
    let sorted l =
      let a = Array.of_list l in
      Array.sort Int.compare a;
      a
    in
    let outs = Array.map sorted outs and ins = Array.map sorted ins in
    (* two sorted entry lists agree once the entries toward [i] and [r]
       themselves are dropped *)
    let eq_except i r (a : int array) (b : int array) =
      let keep e =
        let x = e / (tb * qb) in
        x <> i && x <> r
      in
      let na = Array.length a and nb = Array.length b in
      let ka = ref 0 and kb = ref 0 and ok = ref true in
      while !ok && (!ka < na || !kb < nb) do
        if !ka < na && not (keep a.(!ka)) then incr ka
        else if !kb < nb && not (keep b.(!kb)) then incr kb
        else if !ka < na && !kb < nb && a.(!ka) = b.(!kb) then begin
          incr ka;
          incr kb
        end
        else ok := false
      done;
      !ok
    in
    (* [equiv i r]: origins i and r are interchangeable inside this group —
       same self-parallelism and occupied slots, symmetric relation between
       the two, and identical relations toward every third origin. The
       relation is transitive (each third-origin row/column equality chains,
       and the pairwise entries themselves are pinned by any third member),
       so testing a candidate against one representative per block
       suffices. The third-origin test first compares signatures with the
       i↔r entries subtracted, and only a match is confirmed exactly on the
       entry lists — a hash never decides equivalence. *)
    let equiv i r =
      let u = oarr.(i) and v = oarr.(r) in
      u.o_self_par = v.o_self_par
      && u.o_ts = v.o_ts
      && u.o_qs = v.o_qs
      &&
      let ok = ref true and ti = ref 0 in
      let dr = ref 0 and di = ref 0 in
      while !ok && !ti < Array.length u.o_ts do
        let s = row_start ~u ~ti:!ti ~v in
        ok := s = row_start ~u:v ~ti:!ti ~v:u;
        if !ok && s < Array.length v.o_qs then begin
          dr := !dr + mix (enc r !ti s);
          di := !di + mix (enc i !ti s)
        end;
        incr ti
      done;
      !ok
      && out_sig.(i) - !dr = out_sig.(r) - !di
      && in_sig.(i) - !dr = in_sig.(r) - !di
      && eq_except i r outs.(i) outs.(r)
      && eq_except i r ins.(i) ins.(r)
    in
    (* greedy origin blocks, deterministic (first-node order both ways) *)
    let reps = ref [] and members = Hashtbl.create 8 in
    for i = 0 to m - 1 do
      match List.find_opt (fun r -> equiv i r) (List.rev !reps) with
      | Some r -> Hashtbl.replace members r (i :: Hashtbl.find members r)
      | None ->
          reps := i :: !reps;
          Hashtbl.add members i [ i ]
    done;
    let blocks =
      List.rev !reps
      |> List.map (fun r ->
             {
               bk_members =
                 List.rev (Hashtbl.find members r)
                 |> List.map (fun i -> oarr.(i))
                 |> Array.of_list;
               bk_self_par = oarr.(r).o_self_par;
             })
      |> Array.of_list
    in
    let block_of_origin = Hashtbl.create 8 in
    Array.iteri
      (fun i blk ->
        Array.iter (fun o -> Hashtbl.replace block_of_origin o.o_id i)
          blk.bk_members)
      blocks;
    (* node classes, first-member (= id) order; the class key packs
       (block, t, q, lockset, is-write) into one int — blocks, intervals
       and lockset ids are all dense, so the mixed-radix code is injective
       and the per-group table hashes plain ints *)
    let cls_tbl = Inttbl.create 16 and cls_order = ref [] in
    List.iter
      (fun (n : Graph.node) ->
        let t, q = interval n in
        let blk = Hashtbl.find block_of_origin n.Graph.n_origin in
        let ls = n.Graph.n_lockset in
        let w = is_write n in
        let key =
          ((((((blk * tb) + t) * qb) + q) * nls) + ls) * 2
          + if w then 1 else 0
        in
        match Inttbl.find_opt cls_tbl key with
        | Some members -> members := n :: !members
        | None ->
            let members = ref [ n ] in
            Inttbl.add cls_tbl key members;
            cls_order := ((blk, t, q, ls, w), members) :: !cls_order)
      ns;
    let classes =
      List.rev !cls_order
      |> List.map (fun ((blk, t, q, ls, w), members) ->
             let c_nodes = Array.of_list (List.rev !members) in
             let c_by_origin = Hashtbl.create 4 in
             Array.iter
               (fun (n : Graph.node) ->
                 Hashtbl.replace c_by_origin n.Graph.n_origin
                   (1
                   + Option.value ~default:0
                       (Hashtbl.find_opt c_by_origin n.Graph.n_origin)))
               c_nodes;
             {
               c_nodes;
               c_block = blk;
               c_t = t;
               c_q = q;
               c_ls = ls;
               c_write = w;
               c_by_origin;
             })
      |> Array.of_list
    in
    let k = Array.length classes in
    (* a write by a self-parallel origin races with the same access in
       another run-time instance of that origin — unless the access holds a
       lock, which the other instance would hold too *)
    Array.iter
      (fun c ->
        if
          c.c_write
          && blocks.(c.c_block).bk_self_par
          && c.c_ls = Lockset.empty locks
        then begin
          acc.a_pairs <- acc.a_pairs + 1;
          acc.a_cls <- acc.a_cls + Array.length c.c_nodes - 1;
          Array.iter
            (fun a ->
              acc.a_races <-
                { r_target = target; r_a = a; r_b = a } :: acc.a_races)
            c.c_nodes
        end)
      classes;
    for i = 0 to k - 1 do
      for j = i to k - 1 do
        let ci = classes.(i) and cj = classes.(j) in
        if ci.c_write || cj.c_write then begin
          let same_block = ci.c_block = cj.c_block in
          let sp_i = blocks.(ci.c_block).bk_self_par
          and sp_j = blocks.(cj.c_block).bk_self_par in
          let ni = Array.length ci.c_nodes and nj = Array.length cj.c_nodes in
          let total = if i = j then ni * (ni - 1) / 2 else ni * nj in
          (* member pairs drawn from one origin: candidates only under
             self-parallelism, exactly as in the pairwise loop *)
          let same_origin_pairs =
            if not same_block then 0
            else if i = j then
              Hashtbl.fold
                (fun _ c acc -> acc + (c * (c - 1) / 2))
                ci.c_by_origin 0
            else
              Hashtbl.fold
                (fun o c acc ->
                  acc
                  + c
                    * Option.value ~default:0 (Hashtbl.find_opt cj.c_by_origin o))
                ci.c_by_origin 0
          in
          let candidates =
            if same_block && not sp_i then total - same_origin_pairs else total
          in
          if candidates > 0 then begin
            acc.a_pairs <- acc.a_pairs + 1;
            acc.a_cls <- acc.a_cls + candidates - 1;
            if not (Lockset.disjoint locks ci.c_ls cj.c_ls) then
              acc.a_lock <- acc.a_lock + 1
            else begin
              (* HB edges in/out of a self-parallel origin order each
                 run-time instance only with its own children — the static
                 graph cannot tell instances apart, so HB pruning is
                 unsound there and only locksets apply *)
              let hb_usable = (not sp_i) && not sp_j in
              let hb_hit =
                hb_usable
                &&
                if same_block then
                  (* candidates > 0 and no self-parallelism means the block
                     holds ≥ 2 origins; any ordered pair carries the one
                     shared relation matrix *)
                  let mem = blocks.(ci.c_block).bk_members in
                  Array.length mem >= 2
                  &&
                  let u = mem.(0) and v = mem.(1) in
                  hb_state ~src:u.o_id ~t_idx:ci.c_t ~dst:v.o_id ~q_idx:cj.c_q
                  || hb_state ~src:u.o_id ~t_idx:cj.c_t ~dst:v.o_id
                       ~q_idx:ci.c_q
                else
                  let u = blocks.(ci.c_block).bk_members.(0)
                  and v = blocks.(cj.c_block).bk_members.(0) in
                  hb_state ~src:u.o_id ~t_idx:ci.c_t ~dst:v.o_id ~q_idx:cj.c_q
                  || hb_state ~src:v.o_id ~t_idx:cj.c_t ~dst:u.o_id
                       ~q_idx:ci.c_q
              in
              if hb_hit then acc.a_hb <- acc.a_hb + 1
              else begin
                let skip_same_origin = same_block && not sp_i in
                let emit (a : Graph.node) (b : Graph.node) =
                  if
                    not
                      (skip_same_origin && a.Graph.n_origin = b.Graph.n_origin)
                  then
                    let a, b =
                      if a.Graph.n_id <= b.Graph.n_id then (a, b) else (b, a)
                    in
                    acc.a_races <-
                      { r_target = target; r_a = a; r_b = b } :: acc.a_races
                in
                if i = j then
                  for x = 0 to ni - 1 do
                    for y = x + 1 to ni - 1 do
                      emit ci.c_nodes.(x) ci.c_nodes.(y)
                    done
                  done
                else
                  Array.iter
                    (fun a -> Array.iter (emit a) cj.c_nodes)
                    ci.c_nodes
              end
            end
          end
        end
      done
    done
  end

(* ------------------------------------------------------------------ *)

(* The seed's group check, preserved verbatim as the test oracle for the
   integer-keyed fast path above: per-group hash tables on structural keys
   through the polymorphic hash, and a dense relation matrix (nested bool
   arrays compared with structural [=]) for every ordered origin pair of
   the group. The report and every gated counter are identical to
   [check_group]; the closure queries it asks ([shb.hb_queries]) are not —
   the fast path only asks about the nonzero relations. *)
let check_group_oracle g acc target (ns : Graph.node list) =
  (* quick origin-sharing filter: skip single-origin or read-only groups *)
  let origin_seen = Hashtbl.create 8 in
  let n_origins = ref 0 and first_origin = ref (-1) in
  List.iter
    (fun (n : Graph.node) ->
      if not (Hashtbl.mem origin_seen n.Graph.n_origin) then begin
        Hashtbl.add origin_seen n.Graph.n_origin ();
        if !n_origins = 0 then first_origin := n.Graph.n_origin;
        incr n_origins
      end)
    ns;
  let has_write = List.exists is_write ns in
  let single_origin_ok =
    !n_origins = 1 && not (Graph.self_parallel g !first_origin)
  in
  if has_write && not single_origin_ok then begin
    let locks = Graph.locks g in
    let intervals = Hashtbl.create 64 in
    let interval n =
      match Hashtbl.find_opt intervals n.Graph.n_id with
      | Some tq -> tq
      | None ->
          let tq = Graph.hb_interval g n in
          Hashtbl.add intervals n.Graph.n_id tq;
          tq
    in
    (* per-origin occupancy, first-seen (= id) order *)
    let by_origin = Hashtbl.create 8 and origin_order = ref [] in
    List.iter
      (fun (n : Graph.node) ->
        match Hashtbl.find_opt by_origin n.Graph.n_origin with
        | Some l -> l := n :: !l
        | None ->
            Hashtbl.add by_origin n.Graph.n_origin (ref [ n ]);
            origin_order := n.Graph.n_origin :: !origin_order)
      ns;
    let oinfos =
      List.rev_map
        (fun o ->
          let members = List.rev !(Hashtbl.find by_origin o) in
          let distinct proj =
            List.map proj members |> List.sort_uniq compare |> Array.of_list
          in
          {
            o_id = o;
            o_self_par = Graph.self_parallel g o;
            o_ts = distinct (fun n -> fst (interval n));
            o_qs = distinct (fun n -> snd (interval n));
          })
        !origin_order
      |> List.rev
    in
    let hb_state ~src ~t_idx ~dst ~q_idx =
      Graph.hb_state g ~src ~t_idx ~dst ~q_idx
    in
    (* the full ordered relation table over occupied intervals: rel.(i).(j)
       is the matrix of hb_state answers from origin i's thresholds to
       origin j's entry positions *)
    let oarr = Array.of_list oinfos in
    let m = Array.length oarr in
    let rel =
      Array.init m (fun i ->
          Array.init m (fun j ->
              if i = j then [||]
              else
                let u = oarr.(i) and v = oarr.(j) in
                Array.map
                  (fun t ->
                    Array.map
                      (fun q ->
                        hb_state ~src:u.o_id ~t_idx:t ~dst:v.o_id ~q_idx:q)
                      v.o_qs)
                  u.o_ts))
    in
    (* [equiv i r]: origins i and r are interchangeable inside this group —
       same self-parallelism and occupied slots, symmetric relation between
       the two, and identical relations toward every third origin. The
       relation is transitive (each third-origin row/column equality chains,
       and the pairwise entries themselves are pinned by any third member),
       so testing a candidate against one representative per block suffices *)
    let equiv i r =
      let u = oarr.(i) and v = oarr.(r) in
      u.o_self_par = v.o_self_par
      && u.o_ts = v.o_ts
      && u.o_qs = v.o_qs
      && rel.(i).(r) = rel.(r).(i)
      &&
      let ok = ref true in
      let x = ref 0 in
      while !ok && !x < m do
        if !x <> i && !x <> r then
          ok :=
            rel.(i).(!x) = rel.(r).(!x) && rel.(!x).(i) = rel.(!x).(r);
        incr x
      done;
      !ok
    in
    (* greedy origin blocks, deterministic (first-node order both ways) *)
    let reps = ref [] and members = Hashtbl.create 8 in
    for i = 0 to m - 1 do
      match List.find_opt (fun r -> equiv i r) (List.rev !reps) with
      | Some r -> Hashtbl.replace members r (i :: Hashtbl.find members r)
      | None ->
          reps := i :: !reps;
          Hashtbl.add members i [ i ]
    done;
    let blocks =
      List.rev !reps
      |> List.map (fun r ->
             {
               bk_members =
                 List.rev (Hashtbl.find members r)
                 |> List.map (fun i -> oarr.(i))
                 |> Array.of_list;
               bk_self_par = oarr.(r).o_self_par;
             })
      |> Array.of_list
    in
    let block_of_origin = Hashtbl.create 8 in
    Array.iteri
      (fun i blk ->
        Array.iter (fun o -> Hashtbl.replace block_of_origin o.o_id i)
          blk.bk_members)
      blocks;
    (* node classes, first-member (= id) order *)
    let cls_tbl = Hashtbl.create 16 and cls_order = ref [] in
    List.iter
      (fun (n : Graph.node) ->
        let t, q = interval n in
        let key =
          ( Hashtbl.find block_of_origin n.Graph.n_origin,
            t,
            q,
            n.Graph.n_lockset,
            is_write n )
        in
        match Hashtbl.find_opt cls_tbl key with
        | Some members -> members := n :: !members
        | None ->
            let members = ref [ n ] in
            Hashtbl.add cls_tbl key members;
            cls_order := (key, members) :: !cls_order)
      ns;
    let classes =
      List.rev !cls_order
      |> List.map (fun ((blk, t, q, ls, w), members) ->
             let c_nodes = Array.of_list (List.rev !members) in
             let c_by_origin = Hashtbl.create 4 in
             Array.iter
               (fun (n : Graph.node) ->
                 Hashtbl.replace c_by_origin n.Graph.n_origin
                   (1
                   + Option.value ~default:0
                       (Hashtbl.find_opt c_by_origin n.Graph.n_origin)))
               c_nodes;
             {
               c_nodes;
               c_block = blk;
               c_t = t;
               c_q = q;
               c_ls = ls;
               c_write = w;
               c_by_origin;
             })
      |> Array.of_list
    in
    let k = Array.length classes in
    (* a write by a self-parallel origin races with the same access in
       another run-time instance of that origin — unless the access holds a
       lock, which the other instance would hold too *)
    Array.iter
      (fun c ->
        if
          c.c_write
          && blocks.(c.c_block).bk_self_par
          && c.c_ls = Lockset.empty locks
        then begin
          acc.a_pairs <- acc.a_pairs + 1;
          acc.a_cls <- acc.a_cls + Array.length c.c_nodes - 1;
          Array.iter
            (fun a ->
              acc.a_races <-
                { r_target = target; r_a = a; r_b = a } :: acc.a_races)
            c.c_nodes
        end)
      classes;
    for i = 0 to k - 1 do
      for j = i to k - 1 do
        let ci = classes.(i) and cj = classes.(j) in
        if ci.c_write || cj.c_write then begin
          let same_block = ci.c_block = cj.c_block in
          let sp_i = blocks.(ci.c_block).bk_self_par
          and sp_j = blocks.(cj.c_block).bk_self_par in
          let ni = Array.length ci.c_nodes and nj = Array.length cj.c_nodes in
          let total = if i = j then ni * (ni - 1) / 2 else ni * nj in
          (* member pairs drawn from one origin: candidates only under
             self-parallelism, exactly as in the pairwise loop *)
          let same_origin_pairs =
            if not same_block then 0
            else if i = j then
              Hashtbl.fold
                (fun _ c acc -> acc + (c * (c - 1) / 2))
                ci.c_by_origin 0
            else
              Hashtbl.fold
                (fun o c acc ->
                  acc
                  + c
                    * Option.value ~default:0 (Hashtbl.find_opt cj.c_by_origin o))
                ci.c_by_origin 0
          in
          let candidates =
            if same_block && not sp_i then total - same_origin_pairs else total
          in
          if candidates > 0 then begin
            acc.a_pairs <- acc.a_pairs + 1;
            acc.a_cls <- acc.a_cls + candidates - 1;
            if not (Lockset.disjoint locks ci.c_ls cj.c_ls) then
              acc.a_lock <- acc.a_lock + 1
            else begin
              (* HB edges in/out of a self-parallel origin order each
                 run-time instance only with its own children — the static
                 graph cannot tell instances apart, so HB pruning is
                 unsound there and only locksets apply *)
              let hb_usable = (not sp_i) && not sp_j in
              let hb_hit =
                hb_usable
                &&
                if same_block then
                  (* candidates > 0 and no self-parallelism means the block
                     holds ≥ 2 origins; any ordered pair carries the one
                     shared relation matrix *)
                  let mem = blocks.(ci.c_block).bk_members in
                  Array.length mem >= 2
                  &&
                  let u = mem.(0) and v = mem.(1) in
                  hb_state ~src:u.o_id ~t_idx:ci.c_t ~dst:v.o_id ~q_idx:cj.c_q
                  || hb_state ~src:u.o_id ~t_idx:cj.c_t ~dst:v.o_id
                       ~q_idx:ci.c_q
                else
                  let u = blocks.(ci.c_block).bk_members.(0)
                  and v = blocks.(cj.c_block).bk_members.(0) in
                  hb_state ~src:u.o_id ~t_idx:ci.c_t ~dst:v.o_id ~q_idx:cj.c_q
                  || hb_state ~src:v.o_id ~t_idx:cj.c_t ~dst:u.o_id
                       ~q_idx:ci.c_q
              in
              if hb_hit then acc.a_hb <- acc.a_hb + 1
              else begin
                let skip_same_origin = same_block && not sp_i in
                let emit (a : Graph.node) (b : Graph.node) =
                  if
                    not
                      (skip_same_origin && a.Graph.n_origin = b.Graph.n_origin)
                  then
                    let a, b =
                      if a.Graph.n_id <= b.Graph.n_id then (a, b) else (b, a)
                    in
                    acc.a_races <-
                      { r_target = target; r_a = a; r_b = b } :: acc.a_races
                in
                if i = j then
                  for x = 0 to ni - 1 do
                    for y = x + 1 to ni - 1 do
                      emit ci.c_nodes.(x) ci.c_nodes.(y)
                    done
                  done
                else
                  Array.iter
                    (fun a -> Array.iter (emit a) cj.c_nodes)
                    ci.c_nodes
              end
            end
          end
        end
      done
    done
  end

(* ------------------------------------------------------------------ *)

let run_detect ~oracle g =
  let locks = Graph.locks g in
  (* group access nodes by flat location id — one int-keyed probe per
     access, with the structural target decoded once per group to label
     its witnesses. [oracle] restores the seed's grouping: every access
     keys the table on its structural target through the polymorphic
     hash. Either way the group members and all downstream accounting are
     identical (the tid encoding is injective); only the keying cost
     differs. *)
  let group_arr =
    if oracle then begin
      let groups : (Access.target, Graph.node list ref) Hashtbl.t =
        Hashtbl.create 256
      in
      Array.iter
        (fun (n : Graph.node) ->
          match n.Graph.n_kind with
          | Graph.Read t | Graph.Write t -> (
              let tgt = Graph.target_of g t in
              match Hashtbl.find_opt groups tgt with
              | Some l -> l := n :: !l
              | None -> Hashtbl.add groups tgt (ref [ n ]))
          | _ -> ())
        (Graph.accesses g);
      Hashtbl.fold (fun tgt l acc -> (tgt, List.rev !l) :: acc) groups []
      |> Array.of_list
    end
    else begin
      let groups : Graph.node list ref Inttbl.t = Inttbl.create 256 in
      Array.iter
        (fun (n : Graph.node) ->
          match n.Graph.n_kind with
          | Graph.Read t | Graph.Write t -> (
              match Inttbl.find_opt groups t with
              | Some l -> l := n :: !l
              | None -> Inttbl.add groups t (ref [ n ]))
          | _ -> ())
        (Graph.accesses g);
      (* accesses arrive id-ascending, so reversing the consed list keeps
         each group's members id-ascending *)
      Inttbl.fold
        (fun t l acc -> (Graph.target_of g t, List.rev !l) :: acc)
        groups []
      |> Array.of_list
    end
  in
  let acc = { a_races = []; a_pairs = 0; a_hb = 0; a_lock = 0; a_cls = 0 } in
  if oracle then
    Array.iter (fun (target, ns) -> check_group_oracle g acc target ns) group_arr
  else begin
    let tb, qb = Graph.interval_bounds g in
    let nls = Lockset.n_distinct locks in
    let ostamp = Array.make (max 1 (Graph.n_origins g)) (-1) in
    let olocal = Array.make (max 1 (Graph.n_origins g)) 0 in
    let ivl = Array.make (max 1 (Array.length (Graph.nodes g))) 0 in
    Array.iteri
      (fun gi (target, ns) ->
        check_group g ~tb ~qb ~nls ~ostamp ~olocal ~ivl ~gi acc target ns)
      group_arr
  end;
  let races =
    List.sort
      (fun r1 r2 ->
        compare
          (r1.r_a.Graph.n_id, r1.r_b.Graph.n_id)
          (r2.r_a.Graph.n_id, r2.r_b.Graph.n_id))
      acc.a_races
  in
  (* deduplicate identical source-site pairs, keeping the first witness *)
  let seen = Hashtbl.create 64 in
  let races =
    List.filter
      (fun r ->
        let k = dedup_key r in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      races
  in
  {
    races;
    n_pairs_checked = acc.a_pairs;
    n_hb_pruned = acc.a_hb;
    n_lock_pruned = acc.a_lock;
    n_class_pruned = acc.a_cls;
  }

let run ?metrics ?jobs:_ ?(oracle = false) g =
  match metrics with
  | None -> run_detect ~oracle g
  | Some m ->
      let report =
        O2_util.Metrics.span m "race.detect" (fun () ->
            run_detect ~oracle g)
      in
      let open O2_util in
      let locks = Graph.locks g in
      Metrics.set m "race.pairs_checked" report.n_pairs_checked;
      Metrics.set m "race.hb_pruned" report.n_hb_pruned;
      Metrics.set m "race.lock_pruned" report.n_lock_pruned;
      Metrics.set m "race.class_pruned" report.n_class_pruned;
      Metrics.set m "race.candidates" (List.length report.races);
      Metrics.set m "race.races" (n_races report);
      Metrics.set m "shb.hb_queries" (Graph.hb_queries g);
      (* the lockset disjointness cache is exercised by detection: snapshot
         its hit rate here (cumulative over all runs on this graph) *)
      Metrics.set m "shb.lockset_cache_hits" (Lockset.cache_hits locks);
      Metrics.set m "shb.lockset_cache_misses" (Lockset.cache_misses locks);
      report

let analyze ?(policy = Context.Korigin 1) ?(serial_events = true)
    ?(lock_region = true) ?metrics p =
  let a = Solver.analyze ~policy ?metrics p in
  let g = Graph.build ~serial_events ~lock_region ?metrics a in
  let report = run ?metrics g in
  (a, g, report)
