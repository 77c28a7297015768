(* Classic LRU: Hashtbl from key to list node, nodes linked in recency
   order.  [head] is most recently used, [tail] least. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable evicted : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    cap = capacity;
    tbl = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    evicted = 0;
  }

let capacity t = t.cap
let length t = Hashtbl.length t.tbl
let evictions t = t.evicted

(* Detach a node from the recency list (it stays in the table). *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value

let add t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      n.value <- v;
      unlink t n;
      push_front t n;
      None
  | None ->
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.tbl k n;
      push_front t n;
      if Hashtbl.length t.tbl <= t.cap then None
      else
        (* over capacity by exactly one: drop the LRU tail *)
        let victim =
          match t.tail with Some v -> v | None -> assert false
        in
        unlink t victim;
        Hashtbl.remove t.tbl victim.key;
        t.evicted <- t.evicted + 1;
        Some (victim.key, victim.value)

let keys_mru_first t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk (n.key :: acc) n.next
  in
  walk [] t.head
