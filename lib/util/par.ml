let width ~jobs n = max 1 (min jobs (max 1 n))

let init ~jobs n f =
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (f i);
      work ()
    end
  in
  let run () = match work () with () -> None | exception e -> Some e in
  let domains =
    Array.init (width ~jobs n - 1) (fun _ -> Domain.spawn run)
  in
  let first = run () in
  let errors = first :: Array.to_list (Array.map Domain.join domains) in
  Option.iter raise (List.find_map Fun.id errors);
  Array.map Option.get results
