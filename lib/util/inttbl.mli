(** Hash tables keyed on plain [int]s.

    The analyses key hot tables on packed integers — an object id and a
    field id in one word, a copy edge's [src lsl 31 lor dst], a class
    code mixing block, interval and lockset — whose low bits often carry
    one component only. [Stdlib.Hashtbl] picks a bucket from the low bits
    of the hash, so a hash whose low bits depend only on the key's low
    bits (a bare multiply, say) sends every key sharing that component to
    one bucket and turns each probe into a list scan. {!hash} mixes every
    key bit into every output bit, and stays a few inline integer ops. *)

include Hashtbl.S with type key = int

(** [hash k] is the bucket hash: non-negative, and each of its bits
    depends on every bit of [k]. *)
val hash : int -> int
