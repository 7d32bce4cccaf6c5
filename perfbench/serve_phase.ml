(* Serve phase: an open loop at one fixed offered rate against an
   `lfc serve` daemon with its default configuration (only the socket
   and store paths set), over two reused connections, then a short
   ladder of rates for the highest one that meets the latency limit.
   lf_serve's wire/DRR path and Store.lookup reads dominate; the engine
   computes only the fresh misses. *)

open Common
module Batch = Lf_batch.Batch
module Run_opts = Lf_batch.Run_opts
module Client = Lf_serve.Client

let conns = 2
let limit_s = 0.050 (* the latency limit on p99 for serve_max_rps *)

type shape = {
  warm : int;  (** size of the warm set *)
  warm_n : int * int;
  miss_n : int * int;  (** misses at the fixed rate: a narrow band *)
  ladder_n : int * int;  (** misses on the ladder *)
  rate : float;  (** the fixed offered rate, requests/s *)
}

let shape ctx =
  if ctx.workload = "large" then
    { warm = 48; warm_n = (48, 96); miss_n = (120, 136); ladder_n = (137, 200); rate = 250.0 }
  else { warm = 36; warm_n = (16, 40); miss_n = (64, 80); ladder_n = (81, 128); rate = 250.0 }

(* zipf(1) over ranks 0..n-1 *)
let zipf_cdf n =
  let w = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf st cdf =
  let u = Random.State.float st 1.0 in
  let rec find i = if i >= Array.length cdf - 1 || u < cdf.(i) then i else find (i + 1) in
  find 0

type daemon = { pid : int; socket : string; store_dir : string }

let rec connect_retry socket deadline =
  match Client.connect ~socket () with
  | c -> c
  | exception Unix.Unix_error _ when now () < deadline ->
    Thread.delay 0.005;
    connect_retry socket deadline

let start_daemon ctx =
  let d = fresh_dir ctx "daemon" in
  let socket = Filename.concat d "serve.sock" and store_dir = Filename.concat d "store" in
  let pid =
    spawn ~log:(Filename.concat d "log") ctx.lfc
      [ "serve"; "--socket"; socket; "--store-dir"; store_dir ]
  in
  let c = connect_retry socket (now () +. 30.0) in
  if not (Client.ping c) then failwith "serve: daemon does not answer ping";
  Client.close c;
  { pid; socket; store_dir }

(* the warm set, computed in-process into the daemon's store: these
   results are also the expected replies *)
let precompute (d : daemon) warm =
  let opts =
    Run_opts.make ~engine:Sim.Run_compressed ~jobs:2
      ~store:(Run_opts.Store_in (Some d.store_dir))
      ()
  in
  let outcomes, _ = Batch.run_with opts (Array.to_list warm) in
  Array.map
    (fun (o : Batch.outcome) ->
      match o.Batch.result with
      | Ok r -> r
      | Error _ -> failwith "serve: warm-set precompute failed")
    outcomes

type sample = {
  due : float;
  mutable sent : float;
  mutable fin : float;
  mutable reply : (Client.served, string) result;
}

(* The open loop: request i is due at t0 + i / rate; each of the
   [conns] threads takes the next request, sleeps until it is due,
   sends it on its own connection and waits for the reply.  Latency
   counts from the due time, so a stall shows on every request behind
   it. *)
let open_loop (d : daemon) ~rate (reqs : (Sim.request * bool) array) =
  let n = Array.length reqs in
  let t0 = now () +. 0.01 in
  let samples =
    Array.init n (fun i ->
        { due = t0 +. (float_of_int i /. rate); sent = 0.0; fin = 0.0; reply = Error "unsent" })
  in
  let next = Atomic.make 0 in
  let worker () =
    let c = Client.connect ~socket:d.socket () in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let s = samples.(i) in
        sleep_until s.due;
        s.sent <- now ();
        let reply =
          Span.with_ "serve.request" (fun () ->
              match Client.request_sync c ~rid:i (fst reqs.(i)) with
              | Ok (Client.Served r) -> Ok r
              | Ok (Client.Overloaded m) -> Error ("overloaded: " ^ m)
              | Ok (Client.Rejected m) -> Error ("rejected: " ^ m)
              | Error m -> Error ("transport: " ^ m))
        in
        s.fin <- now ();
        s.reply <- reply;
        go ()
      end
    in
    go ();
    Client.close c
  in
  let threads = List.init conns (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  samples

let latency s = s.fin -. s.due
let ok s = Result.is_ok s.reply

(* all-request p99, a failed request counting as over any limit *)
let p99_all samples =
  quantile 0.99
    (Array.to_list
       (Array.map (fun s -> if ok s then latency s else infinity) samples))

(* A rung passes when nothing failed, p99 <= limit and the generator
   did not fall behind by the end (no growing backlog). *)
let rung_ok samples =
  let n = Array.length samples in
  let tail = Array.sub samples (n - max 1 (n / 10)) (max 1 (n / 10)) in
  Array.for_all ok samples
  && p99_all samples <= limit_s
  && Array.for_all (fun s -> s.sent -. s.due <= limit_s) tail

let run ctx =
  let sh = shape ctx in
  let st = rng ~seed:ctx.seed "serve" in
  let warm =
    Array.of_list
      (distinct_requests st ~count:sh.warm ~lo:(fst sh.warm_n)
         ~hi:(snd sh.warm_n) ~nprocs:4 ~avoid:(Hashtbl.create 1))
  in
  let avoid = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace avoid (Sim.digest r) ()) warm;
  (* the fixed rate takes the whole slice; the ladder, a per-layer
     metric, runs in traced rounds only *)
  let rung_s = 0.5 and rungs = 6 in
  let n_fixed = int_of_float (sh.rate *. ctx.seconds) in
  (* fresh misses: enough for the fixed rate, then ladder misses from a
     wider band; once they run out the ladder draws only warm requests *)
  let fresh count (lo, hi) =
    let rs = distinct_requests st ~count ~lo ~hi ~nprocs:4 ~avoid in
    List.iter (fun r -> Hashtbl.replace avoid (Sim.digest r) ()) rs;
    rs
  in
  let miss_pool =
    Array.of_list (fresh ((n_fixed / 10) + 30) sh.miss_n @ fresh 200 sh.ladder_n)
  in
  let next_miss = ref 0 in
  let cdf = zipf_cdf sh.warm in
  (* (request, is_warm) *)
  let draw count =
    Array.init count (fun _ ->
        if Random.State.float st 1.0 < 0.9 || !next_miss >= Array.length miss_pool then
          (warm.(zipf st cdf), true)
        else begin
          let r = miss_pool.(!next_miss) in
          incr next_miss;
          (r, false)
        end)
  in
  (* set-up: start a daemon, wait for ping, precompute the warm set
     into its store *)
  let (d, expected), setup =
    timed (fun () ->
        let d = start_daemon ctx in
        (d, precompute d warm))
  in
  Report.metric "setup_s" setup;
  let expected_of = Hashtbl.create 64 in
  Array.iteri (fun i r -> Hashtbl.replace expected_of (Sim.digest r) expected.(i)) warm;
  (* the fixed rate *)
  let fixed_reqs = draw n_fixed in
  let samples = open_loop d ~rate:sh.rate fixed_reqs in
  let served = List.filter ok (Array.to_list samples) in
  let lat xs = List.map latency xs in
  let from_store s =
    match s.reply with Ok r -> r.Client.from_store | Error _ -> false
  in
  let hits = List.filter from_store served in
  let misses = List.filter (fun s -> not (from_store s)) served in
  Report.metric "serve_p50_ms" (1e3 *. median (lat served));
  Report.metric "serve_hit_p50_ms" (1e3 *. median (lat hits));
  Report.metric "serve_miss_p50_ms" (1e3 *. median (lat misses));
  Report.info "serve.samples"
    (Printf.sprintf "%d (hits %d, misses %d) at %.0f req/s" n_fixed
       (List.length hits) (List.length misses) sh.rate);
  let ladder = ref [] in
  if ctx.traced then begin
    Report.metric "serve_p99_ms" (1e3 *. p99_all samples);
    (* the ladder: double from the fixed rate until a rung fails, then
       bisect twice between the last pass and the first failure *)
    let try_rate rate =
      let reqs = draw (int_of_float (rate *. rung_s)) in
      let s = open_loop d ~rate reqs in
      (s, reqs, rung_ok s)
    in
    let record (s, reqs, _) = ladder := (s, reqs) :: !ladder in
    let rec climb rate k best =
      if k >= rungs then (best, None)
      else begin
        let (_, _, pass) as r = try_rate rate in
        record r;
        if pass then climb (rate *. 2.0) (k + 1) (Some rate) else (best, Some rate)
      end
    in
    let best, fail = climb sh.rate 0 None in
    let best =
      match (best, fail) with
      | Some lo, Some hi ->
        let rec bisect lo hi k =
          if k = 0 then lo
          else begin
            let mid = (lo +. hi) /. 2.0 in
            let (_, _, pass) as r = try_rate mid in
            record r;
            if pass then bisect mid hi (k - 1) else bisect lo mid (k - 1)
          end
        in
        bisect lo hi 2
      | Some lo, None -> lo
      | None, _ -> 0.0
    in
    Report.metric "serve_max_rps" best
  end;
  (* correctness: every served reply to a warm request equals the
     in-process result; a sample of misses is recomputed in-process *)
  let check (s, reqs) =
    Array.iteri
      (fun i smp ->
        let req, is_warm = reqs.(i) in
        match smp.reply with
        | Error m -> Report.check false "serve: request %d failed: %s" i m
        | Ok r ->
          if is_warm then
            Report.check
              (obs_equal r.Client.result (Hashtbl.find expected_of (Sim.digest req)))
              "serve: warm reply %d differs from the in-process result" i
          else if i mod 8 = 0 then
            Report.check
              (obs_equal r.Client.result (Exec.run_opts (Exec.opts ~jobs:1 ()) req))
              "serve: miss reply %d differs from the in-process result" i
          else Report.attempt 1)
      s
  in
  check (samples, fixed_reqs);
  List.iter check !ladder;
  if ctx.traced then begin
    let miss_replies =
      List.filter_map (fun s -> Result.to_option s.reply) misses
    in
    Report.metric "serve.miss_compute_ms"
      (1e3 *. median (List.map (fun r -> r.Client.wall_s) miss_replies));
    Report.metric "serve.miss_position_mean"
      (mean (List.map (fun r -> float_of_int r.Client.position) miss_replies));
    Report.metric "serve.hit_ratio"
      (float_of_int (List.length hits) /. float_of_int n_fixed);
    Report.metric "serve.gen_late_p99_ms"
      (1e3 *. quantile 0.99 (Array.to_list (Array.map (fun s -> s.sent -. s.due) samples)));
    Report.metric "serve.samples" (float_of_int n_fixed);
    let c = Client.connect ~socket:d.socket () in
    let pings =
      List.init 500 (fun _ ->
          snd (timed (fun () -> Span.with_ "serve.ping" (fun () -> Client.ping c))))
    in
    Client.close c;
    let store = Batch.Store.open_ ~dir:d.store_dir () in
    let lookups =
      List.init 500 (fun i ->
          snd
            (timed (fun () ->
                 Span.with_ "batch.store_lookup" (fun () ->
                     Batch.Store.lookup store warm.(i mod sh.warm)))))
    in
    let ping = median pings and lookup = median lookups in
    let hit = median (lat hits) in
    Report.metric "serve.ping_us" (1e6 *. ping);
    Report.metric "batch.store_lookup_us" (1e6 *. lookup);
    Report.metric "serve.hit_rest_us" (1e6 *. (hit -. ping -. lookup));
    (* floor: a one-byte echo over a Unix socket pair between threads *)
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let buf = Bytes.create 1 in
    let echo =
      Thread.create
        (fun () ->
          let rb = Bytes.create 1 in
          let rec go () =
            if Unix.read b rb 0 1 = 1 then begin
              ignore (Unix.write b rb 0 1);
              go ()
            end
          in
          go ())
        ()
    in
    let echoes =
      List.init 500 (fun _ ->
          snd
            (timed (fun () ->
                 ignore (Unix.write a buf 0 1);
                 ignore (Unix.read a buf 0 1))))
    in
    Unix.shutdown a Unix.SHUTDOWN_SEND;
    Thread.join echo;
    Unix.close a;
    Unix.close b;
    Report.metric "floor.socket_echo_us" (1e6 *. median echoes)
  end;
  Report.child_rss_mb := peak_rss_mb (Some d.pid);
  stop d.pid
