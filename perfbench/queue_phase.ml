(* Queue phase: Queue.enqueue_misses of a few hundred seeded, distinct
   requests into a fresh queue and store, drained by two `lfc worker`
   processes with the default lease ttl — the path `lfc sweep --workers
   2` takes.  Timed until the queue has drained and both workers have
   exited; lf_queue's protocol dominates the engine here. *)

open Common
module Batch = Lf_batch.Batch
module Queue = Lf_queue.Queue

let workers = 2

(* (task count, size band) *)
let shape ctx = if ctx.workload = "large" then (60, (96, 160)) else (300, (16, 64))

let tasks ctx =
  let count, (lo, hi) = shape ctx in
  distinct_requests (rng ~seed:ctx.seed "queue") ~count ~lo ~hi ~nprocs:4
    ~avoid:(Hashtbl.create 1)

type drain = {
  total_s : float;  (** enqueue -> last worker exit *)
  enqueue_s : float;
  first_result_s : float;
  drained_s : float;  (** enqueue -> queue drained *)
  clean : bool;  (** both workers exited 0, nothing failed *)
}

let drain ctx reqs ~store_dir ~queue_dir =
  let store = Batch.Store.open_ ~dir:store_dir () in
  let q = Queue.open_ ~dir:queue_dir in
  let t0 = now () in
  let enq =
    Span.with_ "queue.enqueue_misses" (fun () -> Queue.enqueue_misses q ~store reqs)
  in
  let enqueue_s = now () -. t0 in
  let pids =
    List.init workers (fun i ->
        spawn
          ~log:(Filename.concat ctx.dir (Printf.sprintf "worker%d.log" i))
          ctx.lfc
          [ "worker"; "--queue"; queue_dir; "--store-dir"; store_dir;
            "--wid"; Printf.sprintf "w%d" i ])
  in
  (* poll: first completed task, drained queue, worker exits; sample
     the workers' peak RSS while they live *)
  let first = ref None and drained = ref None in
  let rss = Hashtbl.create 2 in
  let live = ref pids and clean = ref true in
  while !live <> [] do
    List.iter (fun p -> Hashtbl.replace rss p (peak_rss_mb (Some p))) !live;
    if !drained = None then begin
      let st = Queue.status q in
      let t = now () -. t0 in
      if !first = None && st.Queue.pending + st.Queue.leased < enq.Queue.e_enqueued
      then first := Some t;
      if st.Queue.pending = 0 && st.Queue.leased = 0 then begin
        if !first = None then first := Some t;
        drained := Some t
      end
    end;
    live :=
      List.filter
        (fun p ->
          match Unix.waitpid [ Unix.WNOHANG ] p with
          | 0, _ -> true
          | _, Unix.WEXITED 0 -> forget p; false
          | _, _ -> forget p; clean := false; false)
        !live;
    if !live <> [] then Thread.delay 0.002
  done;
  let total_s = now () -. t0 in
  Report.child_rss_mb := Hashtbl.fold (fun _ v a -> a +. v) rss 0.0;
  let st = Queue.status q in
  {
    total_s;
    enqueue_s;
    first_result_s = Option.value !first ~default:total_s;
    drained_s = Option.value !drained ~default:total_s;
    clean = !clean && st.Queue.failed = 0 && enq.Queue.e_enqueued = List.length reqs;
  }

let run ctx =
  let reqs, setup = timed (fun () -> tasks ctx) in
  let n = List.length reqs in
  Report.metric "setup_s" setup;
  let store_dir = fresh_dir ctx "store" and queue_dir = fresh_dir ctx "queue" in
  let d = drain ctx reqs ~store_dir ~queue_dir in
  Report.check d.clean "queue: drain not clean (worker exit, failed task or enqueue count)";
  Report.metric "queue_tasks_per_s" (float_of_int n /. d.total_s);
  (* correctness, outside the timed region: every drained digest's
     stored observables equal a serial in-process run *)
  let store = Batch.Store.open_ ~dir:store_dir () in
  let serial =
    List.map
      (fun r ->
        timed (fun () ->
            Span.with_ "batch.run_one" (fun () -> Batch.run_one ~jobs:1 r)))
      reqs
  in
  List.iter2
    (fun r (expected, _) ->
      Report.check
        (match Batch.Store.lookup store r with
        | Some got -> obs_equal got expected
        | None -> false)
        "queue: stored result of %s differs from the serial run"
        (Format.asprintf "%a" Sim.pp r))
    reqs serial;
  if ctx.traced then begin
    Report.metric "queue.enqueue_us" (1e6 *. d.enqueue_s /. float_of_int n);
    Report.metric "queue.first_result_s" d.first_result_s;
    Report.metric "queue.drain_s" d.drained_s;
    Report.metric "queue.exit_lag_s" (d.total_s -. d.drained_s);
    Report.metric "queue.compute_ms" (1e3 *. sum (List.map snd serial));
    (* claim cost on a scratch queue, in-process *)
    let scratch = Queue.open_ ~dir:(fresh_dir ctx "scratch-queue") in
    List.iter (fun r -> ignore (Queue.enqueue scratch r)) reqs;
    let claims =
      List.filter_map
        (fun _ ->
          let c, t =
            timed (fun () -> Span.with_ "queue.claim" (fun () -> Queue.claim ~wid:"bench" scratch))
          in
          Option.map (fun _ -> t) c)
        reqs
    in
    Report.metric "queue.claim_us" (1e6 *. median claims)
  end
