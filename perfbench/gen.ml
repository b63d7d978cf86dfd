(* Seeded input generators, one per workload.  Each draws only from the
   Xoshiro stream it is given, so one seed gives one input set; nothing
   here times or checks anything. *)

module Graph = Mmfair_topology.Graph
module Builders = Mmfair_topology.Builders
module Network = Mmfair_core.Network
module Xoshiro = Mmfair_prng.Xoshiro
module Protocol = Mmfair_protocols.Protocol
module Churn_gen = Mmfair_workload.Churn_gen

(* ------------------------------------------------------------------ *)
(* fattree-serve                                                       *)

(* The [mmfair topo fat-tree] placement: [per_host] single-receiver
   sessions per host, each sent to a sibling under the same edge switch,
   rotating through the host group. *)
let fat_tree ~k ~per_host =
  let t = Builders.fat_tree ~k () in
  let half = k / 2 in
  let peer h j =
    let base = h / half * half in
    base + ((h - base + 1 + (j mod (half - 1))) mod half)
  in
  let hosts = t.Builders.hosts in
  let specs =
    Array.init
      (Array.length hosts * per_host)
      (fun s ->
        let h = s / per_host and j = s mod per_host in
        Network.session ~sender:hosts.(h) ~receivers:[| hosts.(peer h j) |] ())
  in
  (t, specs)

type request =
  | Write of string list  (** The event lines of one [batch ... end] block, answered by [epoch]. *)
  | Read of string * string  (** [rate SESSION NODE]. *)

let request_text = function
  | Write lines ->
      String.concat "" (("batch\n" :: List.map (fun l -> l ^ "\n") lines) @ [ "end\nepoch\n" ])
  | Read (s, n) -> Printf.sprintf "rate %s %s\n" s n

(* Names as [Net_parser.render] writes them for generated ids. *)
let sname = Printf.sprintf "s%d"
let nname = Printf.sprintf "n%d"
let lname = Printf.sprintf "l%d"

(* [writes] batches of [batch] events, each followed by one read of a
   random session's original receiver.  Event kinds, the rho draw and
   the capacity factors are those of [Churn_gen.default] (capacity
   changes on host links only).  Unlike [Churn_gen], a join adds a
   receiver inside the session's own edge group and only a joined
   receiver leaves, so no session drifts towards the core and the
   component of a change stays one edge group.  Every join is matched
   by a later leave: a join is drawn only while the events left can
   still hold its leave, and leaves are forced once the joined
   receivers fill the events left. *)
let fat_tree_stream ~rng ~k (t : Builders.fat_tree) specs ~writes ~batch =
  let cfg = Churn_gen.default in
  let g = t.Builders.graph and hosts = t.Builders.hosts and half = k / 2 in
  let max_cap = Array.fold_left Float.max 1.0 (Array.init (Graph.link_count g) (Graph.capacity g)) in
  let host_index = Hashtbl.create (Array.length hosts) in
  Array.iteri (fun i h -> Hashtbl.replace host_index h i) hosts;
  let nsessions = Array.length specs in
  let members = Array.map (fun spec -> Array.to_list spec.Network.receivers) specs in
  (* The joined receivers not yet left, as (session, node). *)
  let joined = ref [||] and njoined = ref 0 in
  let push x =
    if !njoined = Array.length !joined then joined := Array.append !joined (Array.make (!njoined + 16) x);
    !joined.(!njoined) <- x;
    incr njoined
  in
  let pop_random () =
    let i = Xoshiro.below rng !njoined in
    let x = !joined.(i) in
    decr njoined;
    !joined.(i) <- !joined.(!njoined);
    x
  in
  let weights = [| cfg.join_weight; cfg.leave_weight; cfg.rho_weight; cfg.cap_weight |] in
  let total_weight = Array.fold_left ( +. ) 0.0 weights in
  let draw_kind () =
    let x = Xoshiro.float rng *. total_weight in
    let rec go i acc = if i = 3 || x < acc +. weights.(i) then i else go (i + 1) (acc +. weights.(i)) in
    go 0 0.0
  in
  let join () =
    let rec pick () =
      let s = Xoshiro.below rng nsessions in
      if List.length members.(s) < min cfg.max_receivers (half - 1) then s else pick ()
    in
    let s = pick () in
    let sender = specs.(s).Network.sender in
    let base = Hashtbl.find host_index sender / half * half in
    let rec node () =
      let v = hosts.(base + Xoshiro.below rng half) in
      if v = sender || List.mem v members.(s) then node () else v
    in
    let v = node () in
    members.(s) <- v :: members.(s);
    push (s, v);
    Printf.sprintf "join %s %s" (sname s) (nname v)
  in
  let leave () =
    let s, v = pop_random () in
    members.(s) <- List.filter (( <> ) v) members.(s);
    Printf.sprintf "leave %s %s" (sname s) (nname v)
  in
  let total = writes * batch in
  let event i =
    let left = total - i in
    if !njoined >= left then leave ()
    else
      let rec draw () =
        match draw_kind () with
        | 0 when !njoined + 2 <= left -> join ()
        | 1 when !njoined > 0 -> leave ()
        | 2 ->
            let s = Xoshiro.below rng nsessions in
            if Xoshiro.bernoulli rng cfg.rho_inf_prob then Printf.sprintf "rho %s inf" (sname s)
            else Printf.sprintf "rho %s %.4f" (sname s) (Xoshiro.uniform rng (0.05 *. max_cap) (1.2 *. max_cap))
        | 3 ->
            let l = Xoshiro.pick rng t.Builders.host_links in
            Printf.sprintf "cap %s %.4f" (lname l)
              (Graph.capacity g l *. Xoshiro.uniform rng cfg.cap_lo_factor cfg.cap_hi_factor)
        | _ -> draw ()
      in
      draw ()
  in
  Array.concat
    (List.init writes (fun b ->
         let lines = List.init batch (fun j -> event ((b * batch) + j)) in
         let s = Xoshiro.below rng nsessions in
         [| Write lines; Read (sname s, nname specs.(s).Network.receivers.(0)) |]))

(* ------------------------------------------------------------------ *)
(* powerlaw-allocate                                                   *)

(* The [mmfair topo power-law] placement: Barabási–Albert with two
   links per newcomer, one session per node sent to its first
   neighbour. *)
let power_law ~rng ~nodes =
  let t = Builders.power_law ~rng ~nodes ~attach:2 ~cap_lo:1.0 ~cap_hi:4.0 in
  let g = t.Builders.graph in
  let specs =
    Array.init nodes (fun v ->
        match Graph.neighbors g v with
        | (u, _) :: _ -> Network.session ~sender:v ~receivers:[| u |] ()
        | [] -> invalid_arg "Gen.power_law: isolated node")
  in
  (g, specs)

(* [batches] consecutive [Churn_gen] batches of [batch] events over
   [net], valid in order from [net]. *)
let churn_batches ~rng net ~batches ~batch =
  let events =
    Mmfair_workload.Churn_gen.generate ~rng net
      { Mmfair_workload.Churn_gen.default with events = batches * batch }
  in
  let rec chunk acc cur n = function
    | [] -> List.rev acc
    | e :: rest ->
        if n + 1 = batch then chunk (List.rev (e :: cur) :: acc) [] 0 rest
        else chunk acc (e :: cur) (n + 1) rest
  in
  Array.of_list (chunk [] [] 0 events)

(* ------------------------------------------------------------------ *)
(* fig8-packets                                                        *)

type fig8_run = { kind : Protocol.kind; independent_loss : float; seed : int64 }

(* Every Section-4 protocol at each independent-loss point, each cell
   with its own run seed. *)
let fig8_grid ~rng ~losses =
  List.concat_map
    (fun kind ->
      List.map (fun independent_loss -> { kind; independent_loss; seed = Xoshiro.next rng }) losses)
    Protocol.all_kinds
  |> Array.of_list
