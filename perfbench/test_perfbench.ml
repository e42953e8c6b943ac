(* The benchmark's own arithmetic: order statistics, the tail rule, metric
   formulas against a hand-built report, metric names and span self time. *)

open Perfbench

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "single" 7.0 (Stats.median [ 7.0 ])

(* Reference values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "1..4" [ 4.0; 2.0; 1.0; 3.0 ] (1.25, 2.5, 3.75);
  check "two" [ 1.0; 2.0 ] (0.75, 1.5, 2.25);
  check "1..9" (List.init 9 (fun i -> float_of_int (i + 1))) (2.5, 5.0, 7.5)

let test_tail_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  let t = Stats.tail (xs 100) in
  Alcotest.(check (option (float 0.0))) "n=100 -> p90" (Some 90.0) t.Stats.percentile;
  Alcotest.check close "p90 value" 90.0 t.Stats.value;
  Alcotest.(check int) "ten beyond" 10 t.Stats.beyond;
  let t = Stats.tail (xs 1000) in
  Alcotest.(check (option (float 0.0))) "n=1000 -> p99" (Some 99.0) t.Stats.percentile;
  Alcotest.(check int) "ten beyond p99" 10 t.Stats.beyond;
  let t = Stats.tail (xs 199) in
  Alcotest.(check (option (float 0.0))) "n=199 -> p94, p95 has 9" (Some 94.0) t.Stats.percentile;
  let t = Stats.tail (xs 79) in
  Alcotest.(check (option (float 0.0))) "n=79 -> p87" (Some 87.0) t.Stats.percentile;
  let t = Stats.tail (xs 20) in
  Alcotest.(check (option (float 0.0))) "n=20 -> p50" (Some 50.0) t.Stats.percentile;
  let t = Stats.tail (xs 19) in
  Alcotest.(check (option (float 0.0))) "n=19 -> max" None t.Stats.percentile;
  Alcotest.check close "max value" 19.0 t.Stats.value;
  (* Every reported percentile really has ten samples beyond it. *)
  List.iter
    (fun n ->
      let t = Stats.tail (xs n) in
      match t.Stats.percentile with
      | Some _ ->
        let above = List.length (List.filter (fun x -> x > t.Stats.value) (xs n)) in
        Alcotest.(check bool) (Printf.sprintf "n=%d beyond >= 10" n) true (above >= 10)
      | None -> ())
    [ 20; 21; 57; 100; 101; 250; 999; 1000; 12345 ]

(* A hand-built UDP report: 16 receivers, 2 MB message, 2.05 s call with
   the 0.05 s linger subtracted. *)
let report ?(completed = 16) ?(verified = true) ?(ejected = []) () =
  {
    Rmcast.Udp_np.receivers = 16;
    transmission_groups = 250;
    data_tx = 2000;
    parity_tx = 180;
    polls = 270;
    naks_sent = 20;
    naks_suppressed = 60;
    datagrams_dropped = 320;
    decode_failures = 0;
    completed;
    verified;
    ejected;
    wall_seconds = 2.0;
    counters = [];
  }

let udp r =
  Check.udp ~receivers:16 ~message_bytes:2_000_000 ~call_s:2.05 ~linger:0.05 ~session_timeout:30.0 r

let test_goodput_cpu_arithmetic () =
  let op = udp (report ()) in
  Alcotest.(check int) "no failures" 0 op.Check.failed;
  Alcotest.(check int) "attempted = R" 16 op.Check.attempted;
  Alcotest.check close "wall minus linger" 2.0 op.Check.wall;
  Alcotest.check close "goodput 2 MB / 2 s" 1.0
    (Stats.goodput_mbps ~bytes:op.Check.bytes ~seconds:op.Check.wall);
  Alcotest.check close "cpu 0.8 s / 2 MB" 0.4 (Stats.cpu_s_per_mb ~cpu_s:0.8 ~bytes:op.Check.bytes);
  Alcotest.check close "E[M]" 1.09
    (Stats.tx_per_packet ~data_tx:op.Check.data_tx ~parity_tx:op.Check.parity_tx)

let test_failures_counted () =
  let timeout = udp (report ~completed:0 ~verified:false ()) in
  Alcotest.(check int) "timeout: every receiver failed" 16 timeout.Check.failed;
  Alcotest.(check int) "timeout delivers nothing" 0 timeout.Check.bytes;
  let mismatch = udp (report ~verified:false ()) in
  Alcotest.(check int) "mismatch: untraceable, all failed" 16 mismatch.Check.failed;
  let ejected = udp (report ~completed:14 ~verified:false ~ejected:[ (3, 7); (3, 8); (9, 1) ] ()) in
  Alcotest.(check int) "two ejected receivers" 2 ejected.Check.failed

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Stats.valid_name n))
    [ "goodput_MBps"; "rse.decode_MBps"; "gc.minor_words_per_datagram"; "a"; "9-x" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S rejected" n) false (Stats.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; "é"; String.make 65 'a' ]

let test_span_self_time () =
  let clock = ref 0.0 in
  let t = Span.create ~clock:(fun () -> !clock) "run-1" in
  Span.with_span t "outer" (fun () ->
      clock := 1.0;
      Span.with_span t "a" (fun () -> clock := 3.0);
      clock := 4.0;
      Span.with_span t "b" (fun () -> clock := 4.5);
      clock := 10.0);
  let get name = Option.get (Span.find t name) in
  Alcotest.check close "outer duration" 10.0 (Span.duration (get "outer"));
  Alcotest.check close "outer self" 7.5 (Span.self_time t (get "outer"));
  Alcotest.check close "leaf self" 2.0 (Span.self_time t (get "a"));
  Alcotest.(check (option int)) "parent" (Some (get "outer").Span.id) (get "b").Span.parent;
  Alcotest.(check string) "run id" "run-1" (get "b").Span.run

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python's exclusive method" `Quick test_quartiles;
          Alcotest.test_case "tail: highest percentile with ten beyond" `Quick test_tail_rule;
          Alcotest.test_case "metric names" `Quick test_metric_names;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "goodput and cpu_s_per_MB arithmetic" `Quick test_goodput_cpu_arithmetic;
          Alcotest.test_case "timeouts and mismatches are failed operations" `Quick
            test_failures_counted;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_span_self_time ]);
    ]
