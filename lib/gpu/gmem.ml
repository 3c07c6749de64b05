(** Paged global memory image: pages are allocated on first write and an
    untouched page reads as zero. *)

let page_bits = 16
let page_bytes = 1 lsl page_bits
let offset_mask = page_bytes - 1

type t = { size : int; pages : Bytes.t array }

let create size =
  { size; pages = Array.make ((size + page_bytes - 1) lsr page_bits) Bytes.empty }

let size t = t.size

let get32 t addr =
  let page = t.pages.(addr lsr page_bits) in
  if Bytes.length page = 0 then 0
  else Int32.to_int (Bytes.get_int32_le page (addr land offset_mask))

let set32 t addr v =
  let i = addr lsr page_bits in
  let page =
    let p = t.pages.(i) in
    if Bytes.length p > 0 then p
    else begin
      let p = Bytes.make page_bytes '\000' in
      t.pages.(i) <- p;
      p
    end
  in
  Bytes.set_int32_le page (addr land offset_mask) (Int32.of_int v)
