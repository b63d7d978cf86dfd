(* The benchmark command.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]

   Runs one workload in this process on one domain, checks every
   output, and prints one JSON line last: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  Every workload
   prints every metric of its mode; a per-layer metric of a layer the
   workload does not reach reads 0. *)

open Common

(* Name and unit of every metric, in printing order. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("work_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("core.network_make_s", "s");
    ("workload.net_render_s", "s");
    ("workload.net_parse_s", "s");
    ("serve.create_s", "s");
    ("core.solve_rounds", "count");
    ("core.round_us", "us");
    ("core.solve_ms", "ms");
    ("dynamic.apply_p50_ms", "ms");
    ("dynamic.apply_p99_ms", "ms");
    ("dynamic.probe_p50_ms", "ms");
    ("serve.overhead_p50_ms", "ms");
    ("serve.parse_us", "us");
    ("serve.read_p50_ms", "ms");
    ("dynamic.component_sessions", "count");
    ("dynamic.solves", "count");
    ("dynamic.full_solves", "count");
    ("core.partial_rounds", "count");
    ("core.live_mb.build", "MB");
    ("core.live_mb.churn", "MB");
    ("protocols.run_s.uncoordinated", "s");
    ("protocols.run_s.deterministic", "s");
    ("protocols.run_s.coordinated", "s");
    ("protocols.membership_ops", "count");
    ("protocols.fixed_run_s", "s");
    ("trace.overhead_pct", "%");
  ]

let workloads =
  [
    ("fattree-serve", Fattree.run);
    ("powerlaw-allocate", Powerlaw.run);
    ("fig8-packets", Fig8.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and quick = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fattree-serve | powerlaw-allocate | fig8-packets");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time (whole rounds, at least a minimum count)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--quick", Arg.Set quick, " small inputs and one round, for the smoke test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "bench: unknown workload %S\n" !workload;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    Printf.eprintf "bench: --trace must be 0 or 1\n";
    exit 2
  end;
  let traced = !trace = 1 in
  let t, measured = run ~quick:!quick ~seed:!seed ~seconds:!seconds ~trace:traced in
  let measured = if traced then measured else measured @ [ ("peak_rss_mb", peak_rss_mb ()) ] in
  let metrics =
    List.map
      (fun (name, unit) ->
        let value =
          match List.assoc_opt name measured with
          | Some v -> v
          | None when traced -> 0.0
          | None -> failwith ("bench: workload did not measure " ^ name)
        in
        { name; value; unit })
      (if traced then per_layer else end_to_end)
  in
  List.iter (fun m -> Printf.eprintf "%-32s %14.6g %s\n" m.name m.value m.unit) metrics;
  Printf.eprintf "attempted %d, failed %d, check failures %d\n%!" t.attempted t.failed t.check_failures;
  print_endline (result_line t metrics);
  if t.check_failures > 0 then exit 1
