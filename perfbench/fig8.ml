(* fig8-packets: the paper's Figure-8 experiment at paper scale — 100
   receivers, 100,000 slots, 8 layers — for the three Section-4
   protocols at a few independent-loss points, plus the fixed-layer
   loss-floor baseline.  The only workload that reaches lib/sim,
   lib/protocols and lib/layering. *)

open Common
module Runner = Mmfair_protocols.Runner
module Protocol = Mmfair_protocols.Protocol
module Two_receiver = Mmfair_markov.Two_receiver
module Xoshiro = Mmfair_prng.Xoshiro

type size = {
  receivers : int;
  packets : int;
  min_rounds : int;
  setups : int;
  standups : int;
  check_runs : int;
}

let full = { receivers = 100; packets = 100_000; min_rounds = 6; setups = 9; standups = 100; check_runs = 16 }
let quick = { receivers = 20; packets = 5_000; min_rounds = 1; setups = 1; standups = 1; check_runs = 4 }
let layers = 8
let shared_loss = 0.0001 (* Figure 8(a) *)
let losses = [ 0.01; 0.05; 0.1 ]
let floor_loss = 0.05

(* The two-receiver cross-check: Uncoordinated under the memoryless
   [Random] layer schedule, against the exact chain of Figure 7(a). *)
let chain_params = Two_receiver.params ~layers:4 ~shared_loss:0.01 ~loss1:0.05 ~loss2:0.05 Protocol.Uncoordinated

let config size ~seed kind =
  Runner.config ~layers ~packets:size.packets ~warmup:(size.packets / 10) ~seed kind

(* Set-up: draw the run grid and stand up every cell's run — the star
   topology, the multicast tree, each receiver's protocol state — by
   running it for a single slot.  One stand-up of the grid takes well
   under a millisecond, so a sample repeats it [standups] times.  The
   references the checks use (the exact chain, the loss floor) are not
   part of it. *)
let build size ~seed =
  timed (fun () ->
      let rng = Xoshiro.create ~seed:(Int64.of_int seed) () in
      let grid = Gen.fig8_grid ~rng ~losses in
      for _ = 1 to size.standups do
        Array.iter
          (fun (cell : Gen.fig8_run) ->
            ignore
              (Runner.run_star
                 (Runner.config ~layers ~packets:1 ~warmup:0 ~seed:cell.Gen.seed cell.Gen.kind)
                 ~receivers:size.receivers ~shared_loss ~independent_loss:cell.Gen.independent_loss))
          grid
      done;
      (grid, rng))

let check_redundancy t (cell : Gen.fig8_run) r =
  let red = r.Runner.redundancy in
  check t (red >= 1.0 && red <= 5.0) (fun () ->
      Printf.sprintf "%s at loss %g: redundancy %g outside [1, 5]" (Protocol.kind_name cell.Gen.kind)
        cell.Gen.independent_loss red);
  if cell.Gen.kind = Protocol.Coordinated then
    check t (red <= 2.5) (fun () ->
        Printf.sprintf "Coordinated at loss %g: redundancy %g above 2.5" cell.Gen.independent_loss red)

(* One pass: every grid cell and the fixed-layer baseline, each timed. *)
let pass t size grid ~floor ~floor_seed =
  let runs =
    Array.to_list grid
    |> List.map (fun (cell : Gen.fig8_run) ->
           t.attempted <- t.attempted + 1;
           let r, dt =
             timed (fun () ->
                 Runner.run_star (config size ~seed:cell.Gen.seed cell.Gen.kind) ~receivers:size.receivers
                   ~shared_loss ~independent_loss:cell.Gen.independent_loss)
           in
           check_redundancy t cell r;
           (cell, r, dt))
  in
  t.attempted <- t.attempted + 1;
  let r, dt =
    timed (fun () ->
        Runner.run_fixed_star (config size ~seed:floor_seed Protocol.Coordinated)
          ~receivers:size.receivers ~level:layers ~shared_loss ~independent_loss:floor_loss)
  in
  check t (Float.abs (r.Runner.redundancy -. floor) <= 0.01 *. floor) (fun () ->
      Printf.sprintf "fixed-layer redundancy %g, loss floor %g" r.Runner.redundancy floor);
  (runs, dt)

(* The two-receiver runs must match the exact chain's stationary law:
   the link rate and the mean receiver rate of independent runs each lie
   within 5 standard errors (plus 0.1% for the finite warmup) of the
   chain's.  The redundancy itself is only reported: dividing by the
   larger of two sampled receiver rates biases a finite run's estimate
   low. *)
let chain_check t size ~rng ~chain =
  let p = chain_params in
  let runs =
    List.init size.check_runs (fun _ ->
        Runner.run_star
          (Runner.config ~layers:p.Two_receiver.layers ~packets:(2 * size.packets)
             ~warmup:(size.packets / 5) ~schedule_mode:Mmfair_protocols.Layer_schedule.Random
             ~seed:(Xoshiro.next rng) Protocol.Uncoordinated)
          ~receivers:2 ~shared_loss:p.Two_receiver.shared_loss ~independent_loss:p.Two_receiver.loss1)
  in
  let agree what f exact =
    let xs = List.map f runs in
    let m = mean xs and se = stddev xs /. sqrt (float (List.length xs)) in
    let z = (m -. exact) /. se in
    Printf.eprintf "two-receiver %s: simulated %.6f, exact chain %.6f, z = %.2f\n" what m exact z;
    check t (Float.abs (m -. exact) <= (5.0 *. se) +. (0.001 *. exact)) (fun () ->
        Printf.sprintf "two-receiver %s: simulated %g vs exact chain %g (standard error %g)" what m exact se)
  in
  Printf.eprintf "two-receiver redundancy: simulated %.4f, exact chain %.4f\n"
    (mean (List.map (fun r -> r.Runner.redundancy) runs))
    chain.Two_receiver.redundancy;
  agree "link rate" (fun r -> r.Runner.link_rate) chain.Two_receiver.link_rate;
  let r1, r2 = chain.Two_receiver.receiver_rates in
  agree "receiver rate"
    (fun r -> mean (Array.to_list r.Runner.receiver_rates))
    ((r1 +. r2) /. 2.0)

let run ~quick:q ~seed ~seconds ~trace =
  let size = if q then quick else full in
  let t = tally () in
  let (grid, rng), setup0 = setup_once (fun () -> build size ~seed) in
  let resetup = (size.setups - 1, fun () -> snd (build size ~seed)) in
  let chain = Two_receiver.analyze chain_params in
  let floor = 1.0 /. ((1.0 -. shared_loss) *. (1.0 -. floor_loss)) in
  let setup_s again = median (setup0 :: again) in
  let floor_seed = Xoshiro.next rng in
  let slots = float (size.receivers * size.packets) in
  let plain = ref [] and fixed = ref [] in
  let run_pass () =
    let runs, dt = pass t size grid ~floor ~floor_seed in
    plain := runs @ !plain;
    fixed := dt :: !fixed
  in
  let metrics =
    if not trace then begin
      let again = rounds ~seconds ~min_rounds:size.min_rounds ~resetup (fun _ -> run_pass ()) in
      let ms = List.map (fun (_, _, dt) -> dt *. 1e3) !plain in
      [
        ("setup_s", setup_s again);
        ("op_p50_ms", median ms);
        ("work_per_s", slots *. float (List.length ms) /. (sum ms /. 1e3));
      ]
    end
    else begin
      let traced = ref [] in
      let sink = Mmfair_obs.Sink.make () in
      ignore @@ rounds ~seconds ~min_rounds:size.min_rounds ~resetup (fun _ ->
          run_pass ();
          let runs, _ =
            Mmfair_obs.Probe.with_sink sink (fun () -> pass t size grid ~floor ~floor_seed)
          in
          traced := runs @ !traced);
      let ms runs = List.map (fun (_, _, dt) -> dt *. 1e3) runs in
      let by kind =
        median (List.filter_map (fun ((c : Gen.fig8_run), _, dt) -> if c.Gen.kind = kind then Some dt else None) !plain)
      in
      let ops =
        mean
          (List.map (fun (_, r, _) -> float (r.Runner.total_joins + r.Runner.total_leaves)) !plain)
      in
      [
        ("protocols.run_s.uncoordinated", by Protocol.Uncoordinated);
        ("protocols.run_s.deterministic", by Protocol.Deterministic);
        ("protocols.run_s.coordinated", by Protocol.Coordinated);
        ("protocols.membership_ops", ops);
        ("protocols.fixed_run_s", median !fixed);
        ( "trace.overhead_pct",
          100.0 *. (median (ms !traced) -. median (ms !plain)) /. median (ms !plain) );
      ]
    end
  in
  chain_check t size ~rng ~chain;
  (t, metrics)
