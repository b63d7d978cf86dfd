(* fattree-serve: churnd ([Daemon.serve_fd]) on a fat tree, driven by a
   closed-loop client in the same thread.  Each request is written to a
   pipe followed by [quit], [serve_fd] answers it and returns, and the
   answer is read back from a second pipe: one request outstanding at a
   time, no socket, no second process. *)

open Common
module Daemon = Mmfair_serve.Daemon
module Engine = Mmfair_dynamic.Engine
module Batch = Mmfair_dynamic.Batch
module Net_parser = Mmfair_workload.Net_parser
module Churn_parser = Mmfair_workload.Churn_parser
module Xoshiro = Mmfair_prng.Xoshiro

type size = { k : int; per_host : int; writes : int; min_rounds : int; setups : int }

let full = { k = 16; per_host = 9; writes = 200; min_rounds = 5; setups = 9 }
let quick = { k = 6; per_host = 9; writes = 12; min_rounds = 1; setups = 1 }
let batch = 16
let config = { Daemon.default_config with domains = 1 }

type built = {
  tree : Mmfair_topology.Builders.fat_tree;
  specs : Network.session_spec array;
  parsed : Net_parser.t;
  phases : (string * float) list;
}

(* Generate, render and parse the description, build it, and stand the
   daemon up (its epoch-0 solve); the daemon itself is discarded, since
   every pass starts from a fresh one. *)
let build size =
  let (tree, specs), gen_s = timed (fun () -> Gen.fat_tree ~k:size.k ~per_host:size.per_host) in
  let net, make_s = timed (fun () -> Network.make tree.Mmfair_topology.Builders.graph specs) in
  let doc, render_s = timed (fun () -> Net_parser.render net) in
  let parsed, parse_s = timed (fun () -> Net_parser.parse_string doc) in
  let _, create_s = timed (fun () -> Daemon.create ~config parsed) in
  {
    tree;
    specs;
    parsed;
    phases =
      [
        ("gen", gen_s);
        ("core.network_make_s", make_s);
        ("workload.net_render_s", render_s);
        ("workload.net_parse_s", parse_s);
        ("serve.create_s", create_s);
      ];
  }

let create parsed =
  match Daemon.create ~config parsed with
  | Ok d -> d
  | Error e -> failwith ("Daemon.create: " ^ Mmfair_core.Solver_error.to_string e)

(* The closed-loop client's two pipes, kept for the whole run. *)
type client = { in_r : Unix.file_descr; in_w : Unix.file_descr; out_r : Unix.file_descr; out_w : Unix.file_descr; buf : Bytes.t }

let client () =
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  { in_r; in_w; out_r; out_w; buf = Bytes.create 65536 }

let close_client c = List.iter Unix.close [ c.in_r; c.in_w; c.out_r; c.out_w ]

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go pos = if pos < Bytes.length b then go (pos + Unix.write fd b pos (Bytes.length b - pos)) in
  go 0

(* One request: hand it over, let the daemon serve it, read the answer
   back up to the [bye] that closes it. *)
let exchange c d text =
  write_all c.in_w text;
  Daemon.serve_fd d ~input:c.in_r ~output:c.out_w;
  let acc = Buffer.create 64 in
  let rec read () =
    let n = Unix.read c.out_r c.buf 0 (Bytes.length c.buf) in
    Buffer.add_subbytes acc c.buf 0 n;
    let s = Buffer.contents acc in
    if String.length s >= 4 && String.sub s (String.length s - 4) 4 = "bye\n" then s else read ()
  in
  read ()

let strip_bye s = String.sub s 0 (String.length s - 4)

type pass = { write_ms : float list; read_ms : float list }

(* The rate the engine holds for the receiver of [session] on [node]. *)
let engine_rate (b : built) d session node =
  let find names x =
    let r = ref (-1) in
    Array.iteri (fun i n -> if n = x then r := i) names;
    !r
  in
  let si = find b.parsed.Net_parser.session_names session in
  let ni = find b.parsed.Net_parser.node_names node in
  let e = Daemon.engine d in
  let spec = Network.session_spec (Engine.network e) si in
  let k = ref (-1) in
  Array.iteri (fun i v -> if v = ni then k := i) spec.Network.receivers;
  Allocation.rate (Engine.allocation e) { Network.session = si; index = !k }

(* Replay every request from a fresh daemon, timing each from hand-over
   to its answer read back, and check every answer and the final
   allocation. *)
let serve_pass t (b : built) c requests texts =
  let d = create b.parsed in
  let writes = ref 0 and write_ms = ref [] and read_ms = ref [] in
  Array.iteri
    (fun i req ->
      t.attempted <- t.attempted + 1;
      let answer, dt = timed (fun () -> exchange c d texts.(i)) in
      let answer = strip_bye answer in
      if String.length answer >= 3 && String.sub answer 0 3 = "err" then begin
        t.failed <- t.failed + 1;
        prerr_string ("request failed: " ^ answer)
      end
      else
        match req with
        | Gen.Write _ ->
            incr writes;
            write_ms := (dt *. 1e3) :: !write_ms;
            let expect = Printf.sprintf "epoch %d\n" !writes in
            check t (answer = expect) (fun () ->
                Printf.sprintf "write %d answered %S, want %S" !writes answer expect)
        | Gen.Read (s, n) ->
            read_ms := (dt *. 1e3) :: !read_ms;
            let served = Scanf.sscanf answer "rate %f" Fun.id in
            let held = engine_rate b d s n in
            check t (Float.abs (served -. held) <= 1e-9) (fun () ->
                Printf.sprintf "rate %s %s answered %.17g, engine holds %.17g" s n served held))
    requests;
  certify_against_scratch t ~what:"served allocation" (Engine.allocation (Daemon.engine d));
  { write_ms = List.rev !write_ms; read_ms = List.rev !read_ms }

let write_batches (b : built) requests =
  Array.to_list requests
  |> List.filter_map (function
       | Gen.Write lines ->
           Some
             (List.mapi
                (fun i l ->
                  match Churn_parser.parse_line b.parsed ~lineno:(i + 1) l with
                  | Churn_parser.Event e -> e
                  | _ -> invalid_arg "write_batches")
                lines)
       | Gen.Read _ -> None)

(* The same batches through a bare warm-restored [Batch] engine, for the
   per-layer split of a write. *)
let apply_pass (b : built) a0 batches =
  let eng = Batch.create ~allocation:a0 b.parsed.Net_parser.net in
  List.map
    (fun evs ->
      let st, dt = timed (fun () -> Batch.apply eng evs) in
      (st, dt *. 1e3))
    batches

let run ~quick:q ~seed ~seconds ~trace =
  let size = if q then quick else full in
  let t = tally () in
  let b = setup_once (fun () -> build size) in
  let resetup = (size.setups - 1, fun () -> (build size).phases) in
  let rng = Xoshiro.create ~seed:(Int64.of_int seed) () in
  let requests = Gen.fat_tree_stream ~rng ~k:size.k b.tree b.specs ~writes:size.writes ~batch in
  let texts = Array.map (fun r -> Gen.request_text r ^ "quit\n") requests in
  let c = client () in
  let setup_phases again = b.phases :: again in
  let metrics =
    if not trace then begin
      let passes = ref [] in
      let again =
        rounds ~seconds ~min_rounds:size.min_rounds ~resetup (fun _ ->
            passes := serve_pass t b c requests texts :: !passes)
      in
      let writes = List.concat_map (fun p -> p.write_ms) !passes in
      [
        ("setup_s", median (List.map (fun p -> sum (List.map snd p)) (setup_phases again)));
        ("op_p50_ms", median writes);
        ("work_per_s", float (batch * List.length writes) /. (sum writes /. 1e3));
      ]
    end
    else begin
      let live_build = live_mb () in
      let a0 = Engine.allocation (Daemon.engine (create b.parsed)) in
      let batches = write_batches b requests in
      let rounds_n = ref 0 in
      let counter = Mmfair_obs.Sink.make ~on_round:(fun _ -> incr rounds_n) () in
      let _, solve_s =
        timed (fun () ->
            Mmfair_obs.Probe.with_sink counter (fun () ->
                Mmfair_core.Allocator.max_min b.parsed.Net_parser.net))
      in
      let solve_rounds = float !rounds_n in
      let lines =
        Array.to_list texts
        |> List.concat_map (String.split_on_char '\n')
        |> List.filter (fun l -> l <> "")
      in
      let plain = ref [] and traced = ref [] and bare = ref [] and probed = ref [] in
      let partial_rounds = ref 0 and parse_us = ref [] in
      let again =
        rounds ~seconds ~min_rounds:size.min_rounds ~resetup (fun _ ->
            plain := serve_pass t b c requests texts :: !plain;
            traced :=
              Mmfair_obs.Probe.with_sink counter (fun () -> serve_pass t b c requests texts)
              :: !traced;
            bare := apply_pass b a0 batches :: !bare;
            rounds_n := 0;
            probed := Mmfair_obs.Probe.with_sink counter (fun () -> apply_pass b a0 batches) :: !probed;
            partial_rounds := !rounds_n;
            let _, dt =
              timed (fun () ->
                  List.iteri
                    (fun i l -> ignore (Mmfair_serve.Protocol.parse b.parsed ~lineno:(i + 1) l))
                    lines)
            in
            parse_us := (dt *. 1e6 /. float (List.length lines)) :: !parse_us)
      in
      let live_churn =
        let eng = Batch.create ~allocation:a0 b.parsed.Net_parser.net in
        List.iter (fun evs -> ignore (Batch.apply eng evs)) batches;
        let m = live_mb () in
        ignore (Sys.opaque_identity eng);
        m
      in
      let writes p = List.concat_map (fun x -> x.write_ms) p in
      let ms p = List.concat_map (List.map snd) p in
      let per_batch f = mean (List.map (fun (st, _) -> f st) (List.hd !bare)) in
      (* A write minus the bare apply of the same batch in the same round. *)
      let overhead =
        List.concat (List.map2 (fun p a -> List.map2 (fun w (_, x) -> w -. x) p.write_ms a) !plain !bare)
      in
      let phase name = median (List.map (List.assoc name) (setup_phases again)) in
      [
        ("core.network_make_s", phase "core.network_make_s");
        ("workload.net_render_s", phase "workload.net_render_s");
        ("workload.net_parse_s", phase "workload.net_parse_s");
        ("serve.create_s", phase "serve.create_s");
        ("core.solve_rounds", solve_rounds);
        ("core.round_us", solve_s *. 1e6 /. solve_rounds);
        ("core.solve_ms", solve_s *. 1e3);
        ("dynamic.apply_p50_ms", median (ms !bare));
        ("dynamic.apply_p99_ms", percentile 0.99 (ms !bare));
        ("dynamic.probe_p50_ms", median (ms !probed) -. median (ms !bare));
        ("serve.overhead_p50_ms", median overhead);
        ("serve.parse_us", median !parse_us);
        ("serve.read_p50_ms", median (List.concat_map (fun p -> p.read_ms) !plain));
        ("dynamic.component_sessions", per_batch (fun st -> float st.Batch.component_sessions));
        ("dynamic.solves", per_batch (fun st -> float st.Batch.solves));
        ("dynamic.full_solves", per_batch (fun st -> if st.Batch.full_solve then 1.0 else 0.0));
        ("core.partial_rounds", float !partial_rounds /. float (List.length batches));
        ("core.live_mb.build", live_build);
        ("core.live_mb.churn", live_churn);
        ( "trace.overhead_pct",
          100.0 *. (median (writes !traced) -. median (writes !plain)) /. median (writes !plain) );
      ]
    end
  in
  close_client c;
  (t, metrics)
