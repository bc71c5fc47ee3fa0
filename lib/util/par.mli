(** Fan-out across domains, for independent whole units of work.

    The batch driver (one file per index) and the fuzzer (one generated
    program per index) share this helper. A single program's analysis is
    serial: fanning its race checks out over two domains on two cores was
    never measurably faster than one domain, so domains only ever split
    work that shares no mutable state. *)

(** [width ~jobs n] is the number of domains [init ~jobs n] runs on:
    [jobs] clamped to [1 .. max 1 n]. *)
val width : jobs:int -> int -> int

(** [init ~jobs n f] is [Array.init n f], with the calls spread over
    [width ~jobs n] domains (the calling one included): each domain claims
    the next unclaimed index until none are left. Results come back in
    index order, whatever [jobs] is. The calls of [f] must not share
    mutable state. If some call raises, the exception is re-raised once
    every domain has stopped. *)
val init : jobs:int -> int -> (int -> 'a) -> 'a array
