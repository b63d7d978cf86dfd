(* powerlaw-allocate: full Appendix-A solves and 16-event churn batches
   through a bare [Batch] engine on a Barabási–Albert graph.  Every node
   sends, so routing dominates set-up, and a full solve runs one round
   per session: the solver-bound counterpart of fattree-serve. *)

open Common
module Batch = Mmfair_dynamic.Batch
module Allocator = Mmfair_core.Allocator
module Xoshiro = Mmfair_prng.Xoshiro

type size = { nodes : int; sequences : int; batches : int; min_rounds : int; setups : int }

(* Several short churn sequences rather than one long one: a long random
   walk of joins and leaves drifts, and how far it drifts (how many
   batches end up touching a hub) varies with the seed. *)
let full = { nodes = 2048; sequences = 5; batches = 50; min_rounds = 4; setups = 5 }
let quick = { nodes = 200; sequences = 2; batches = 5; min_rounds = 1; setups = 1 }
let batch = 16

let build size ~seed =
  let rng = Xoshiro.create ~seed:(Int64.of_int seed) () in
  let (g, specs), gen_s = timed (fun () -> Gen.power_law ~rng ~nodes:size.nodes) in
  let net, make_s = timed (fun () -> Network.make g specs) in
  (net, rng, [ ("gen", gen_s); ("core.network_make_s", make_s) ])

(* Replay every sequence from the warm-restored start state, timing
   each [Batch.apply], and check the final allocation of sequence
   [check] (rounds take turns). *)
let apply_pass t net a0 sequences ~check =
  List.concat
    (List.mapi
       (fun i batches ->
         let eng = Batch.create ~allocation:a0 net in
         let out =
           Array.to_list batches
           |> List.map (fun evs ->
                  t.attempted <- t.attempted + 1;
                  let st, dt = timed (fun () -> Batch.apply eng evs) in
                  (st, dt *. 1e3))
         in
         if i = check then certify_against_scratch t ~what:"churned allocation" (Batch.allocation eng);
         out)
       sequences)

let solve t net =
  t.attempted <- t.attempted + 1;
  let a, dt = timed (fun () -> Allocator.max_min net) in
  certify_against_scratch t ~what:"full solve" a;
  (a, dt *. 1e3)

let run ~quick:q ~seed ~seconds ~trace =
  let size = if q then quick else full in
  let t = tally () in
  let net, rng, phases = setup_once (fun () -> build size ~seed) in
  let resetup = (size.setups - 1, fun () -> let _, _, p = build size ~seed in p) in
  let setup_phases again = phases :: again in
  let a0 = Allocator.max_min net in
  let sequences =
    List.init size.sequences (fun _ ->
        Gen.churn_batches ~rng:(Xoshiro.split rng) net ~batches:size.batches ~batch)
  in
  let check i = i mod size.sequences in
  Gc.compact ();
  if not trace then begin
    let solves = ref [] and applied = ref [] in
    let again =
      rounds ~seconds ~min_rounds:size.min_rounds ~resetup (fun i ->
          solves := snd (solve t net) :: !solves;
          applied := List.map snd (apply_pass t net a0 sequences ~check:(check i)) @ !applied)
    in
    ( t,
      [
        ("setup_s", median (List.map (fun p -> sum (List.map snd p)) (setup_phases again)));
        ("op_p50_ms", median !applied);
        ("work_per_s", float (batch * List.length !applied) /. (sum !applied /. 1e3));
      ] )
  end
  else begin
    let live_build = live_mb () in
    let rounds_n = ref 0 in
    let counter = Mmfair_obs.Sink.make ~on_round:(fun _ -> incr rounds_n) () in
    let solves = ref [] and bare = ref [] and probed = ref [] and partial = ref 0 in
    let again =
      rounds ~seconds ~min_rounds:size.min_rounds ~resetup (fun i ->
          solves := snd (solve t net) :: !solves;
          bare := apply_pass t net a0 sequences ~check:(check i) :: !bare;
          rounds_n := 0;
          probed :=
            Mmfair_obs.Probe.with_sink counter (fun () -> apply_pass t net a0 sequences ~check:(-1))
            :: !probed;
          partial := !rounds_n)
    in
    rounds_n := 0;
    ignore (Mmfair_obs.Probe.with_sink counter (fun () -> Allocator.max_min net));
    let solve_rounds = float !rounds_n in
    let live_churn =
      let eng = Batch.create ~allocation:a0 net in
      Array.iter (fun evs -> ignore (Batch.apply eng evs)) (List.hd sequences);
      let m = live_mb () in
      ignore (Sys.opaque_identity eng);
      m
    in
    let ms p = List.concat_map (List.map snd) p in
    let per_batch f = mean (List.map (fun (st, _) -> f st) (List.hd !bare)) in
    let phase name = median (List.map (List.assoc name) (setup_phases again)) in
    ( t,
      [
        ("core.network_make_s", phase "core.network_make_s");
        ("core.solve_rounds", solve_rounds);
        ("core.round_us", median !solves *. 1e3 /. solve_rounds);
        ("core.solve_ms", median !solves);
        ("dynamic.apply_p50_ms", median (ms !bare));
        ("dynamic.apply_p99_ms", percentile 0.99 (ms !bare));
        ("dynamic.probe_p50_ms", median (ms !probed) -. median (ms !bare));
        ("dynamic.component_sessions", per_batch (fun st -> float st.Batch.component_sessions));
        ("dynamic.solves", per_batch (fun st -> float st.Batch.solves));
        ("dynamic.full_solves", per_batch (fun st -> if st.Batch.full_solve then 1.0 else 0.0));
        ("core.partial_rounds", float !partial /. float (List.length (List.hd !bare)));
        ("core.live_mb.build", live_build);
        ("core.live_mb.churn", live_churn);
        ( "trace.overhead_pct",
          100.0 *. (median (ms !probed) -. median (ms !bare)) /. median (ms !bare) );
      ] )
  end
