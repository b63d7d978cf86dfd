(* Timing, statistics, checks and the result line shared by the three
   workloads. *)

module Json = Mmfair_obs.Json
module Network = Mmfair_core.Network
module Allocation = Mmfair_core.Allocation

let now = Mmfair_obs.Clock.now_s

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The library's descriptive statistics over the sample lists the
   workloads collect; percentiles interpolate between order statistics. *)
let percentile q xs = Mmfair_stats.Descriptive.quantile (Array.of_list xs) q
let median xs = Mmfair_stats.Descriptive.median (Array.of_list xs)
let sum xs = Mmfair_stats.Descriptive.sum (Array.of_list xs)
let mean xs = Mmfair_stats.Descriptive.mean (Array.of_list xs)
let stddev xs = Mmfair_stats.Descriptive.stddev (Array.of_list xs)

(* One printed metric, and a run's operation accounting. *)
type metric = { name : string; value : float; unit : string }

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable check_failures : int;
}

let tally () = { attempted = 0; failed = 0; check_failures = 0 }

let check t ok what =
  if not ok then begin
    t.check_failures <- t.check_failures + 1;
    if t.check_failures <= 20 then prerr_endline ("check failed: " ^ what ())
  end

(* Largest per-receiver rate difference between two allocations of
   networks with the same sessions and receivers. *)
let max_gap a b =
  let net = Allocation.network a in
  let gap = ref 0.0 in
  for s = 0 to Network.session_count net - 1 do
    let ra = Allocation.rates_of_session a s and rb = Allocation.rates_of_session b s in
    if Array.length ra <> Array.length rb then gap := infinity
    else Array.iteri (fun i x -> gap := Float.max !gap (Float.abs (x -. rb.(i)))) ra
  done;
  !gap

(* The Fairness-Property-1 certificate of a served allocation, and its
   agreement with a from-scratch Appendix-A solve of the same network. *)
let certify_against_scratch t ~what alloc =
  (match Mmfair_core.Certify.check alloc with
  | Mmfair_core.Certify.Certified _ -> ()
  | Mmfair_core.Certify.Infeasible v ->
      check t false (fun () -> Printf.sprintf "%s: infeasible (%d violations)" what (List.length v))
  | Mmfair_core.Certify.Uncertified rs ->
      check t false (fun () ->
          Printf.sprintf "%s: %d receivers lack a bottleneck witness" what (List.length rs)));
  let scratch = Mmfair_core.Allocator.max_min (Allocation.network alloc) in
  let gap = max_gap alloc scratch in
  check t (gap <= 1e-9) (fun () -> Printf.sprintf "%s: differs from a from-scratch solve by %g" what gap)

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Live heap after a full major collection, in MB. *)
let live_mb () =
  Gc.full_major ();
  float ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* A set-up on a compacted heap, compacted again after, so that neither
   it nor the round that follows pays for the other's garbage. *)
let setup_once f =
  Gc.compact ();
  let r = f () in
  Gc.compact ();
  r

(* Run [round] until [seconds] have passed and at least [min_rounds] are
   done — whole rounds only, so every run attempts the same operations
   in the same proportions, each from a compacted heap so that rounds do
   not inherit each other's collector debt — and repeat the set-up [extra] more times,
   spread evenly over the window, so that the set-up figure sees the
   same host as the rounds do.  Returns what the repeated set-ups
   returned. *)
let rounds ~seconds ~min_rounds ~resetup:(extra, setup) round =
  let t0 = now () in
  let n = ref 0 and again = ref [] in
  let due () =
    List.length !again < extra
    && now () -. t0 >= seconds *. float (List.length !again + 1) /. float (extra + 1)
  in
  while !n < min_rounds || now () -. t0 < seconds do
    if due () then again := setup_once setup :: !again;
    Gc.compact ();
    round !n;
    incr n
  done;
  while List.length !again < extra do
    again := setup_once setup :: !again
  done;
  List.rev !again

let result_line t metrics =
  Json.Obj
    [
      ("correct", Json.Bool (t.check_failures = 0));
      ("attempted", Json.Num (float t.attempted));
      ("failed", Json.Num (float t.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
             metrics) );
    ]
  |> Json.to_string
