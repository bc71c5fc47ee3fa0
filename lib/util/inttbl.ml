(* a 63-bit variant of MurmurHash3's fmix64 finalizer: the xor-shifts fold
   high bits into low ones, the odd multipliers spread low bits upward *)
let hash x =
  let x = (x lxor (x lsr 33)) * 0x3f51afd7ed558ccd in
  let x = (x lxor (x lsr 33)) * 0x04ceb9fe1a85ec53 in
  (x lxor (x lsr 33)) land max_int

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
