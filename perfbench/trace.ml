(* In-memory span recorder for the traced run. Spans are taken from the
   benchmark's side of each layer's public entry point; the program under
   test is not instrumented. *)

type span = {
  id : int;
  name : string;  (** layer name, e.g. ["pta"] *)
  parent : int;  (** id of the enclosing span, -1 at the root *)
  request : int;  (** spans of one analysed request share this *)
  start : float;
  mutable stop : float;
  mutable minor_words : float;  (** allocated by the calling domain *)
  mutable major_gcs : int;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable open_ : span list;  (** innermost first *)
  mutable next : int;
  mutable request : int;
  t0 : float;
}

let create () =
  { spans = []; open_ = []; next = 0; request = 0; t0 = Unix.gettimeofday () }

(* [request t f] runs [f] as a fresh request: its spans share one id. *)
let request t f =
  t.request <- t.request + 1;
  f ()

let span t name f =
  let g0 = Gc.quick_stat () in
  let s =
    {
      id = t.next;
      name;
      parent = (match t.open_ with p :: _ -> p.id | [] -> -1);
      request = t.request;
      start = Unix.gettimeofday () -. t.t0;
      stop = nan;
      minor_words = 0.0;
      major_gcs = 0;
    }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.open_ <- s :: t.open_;
  Fun.protect f ~finally:(fun () ->
      s.stop <- Unix.gettimeofday () -. t.t0;
      let g1 = Gc.quick_stat () in
      s.minor_words <- g1.minor_words -. g0.minor_words;
      s.major_gcs <- g1.major_collections - g0.major_collections;
      t.open_ <- List.tl t.open_)

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* [write t path] writes the spans as Chrome trace-event JSON (one complete
   event per span, microseconds, one track per request). *)
let write t path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.1f,\
             \"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\
             \"minor_words\":%.0f,\"major_gcs\":%d}}"
            (if i = 0 then "" else ",")
            s.name s.request (s.start *. 1e6)
            (duration s *. 1e6)
            s.id s.parent s.minor_words s.major_gcs)
        (spans t);
      output_string oc "\n]}\n")
