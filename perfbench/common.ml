(* Plumbing shared by the benchmark phases: one clock, in-memory spans,
   order statistics, seeded draws, the phase report, child processes
   and /proc probes. *)

module Exec = Lf_machine.Exec
module Bench_timer = Lf_native.Bench_timer

(* ------------------------------------------------------------------ *)
(* One clock: CLOCK_MONOTONIC through Bench_timer, in seconds.         *)

let now () = Int64.to_float (Bench_timer.now_ns ()) *. 1e-9

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sleep_until t =
  let d = t -. now () in
  if d > 0.0 then Thread.delay d

(* ------------------------------------------------------------------ *)
(* Order statistics (linear interpolation between closest ranks).      *)

let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let minimum xs = quantile 0.0 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Seeded draws: one independent stream per (seed, purpose).           *)

let rng ~seed purpose = Random.State.make [| seed; Hashtbl.hash purpose |]
let pick st xs = List.nth xs (Random.State.int st (List.length xs))
let between st lo hi = lo + Random.State.int st (hi - lo + 1)

(* ------------------------------------------------------------------ *)
(* Spans: recorded in memory around calls into the libraries when the
   run is traced, written out as a Chrome trace at the end.            *)

module Span = struct
  let enabled = ref false
  let mu = Mutex.create ()
  let spans : (string * float * float * int) list ref = ref []

  let record name t0 t1 =
    Mutex.lock mu;
    spans := (name, t0, t1, Thread.id (Thread.self ())) :: !spans;
    Mutex.unlock mu

  let with_ name f =
    if not !enabled then f ()
    else begin
      let t0 = now () in
      Fun.protect ~finally:(fun () -> record name t0 (now ())) f
    end

  (* durations in seconds, in recording order *)
  let durations name =
    List.rev
      (List.filter_map
         (fun (n, t0, t1, _) -> if n = name then Some (t1 -. t0) else None)
         !spans)

  let total name = sum (durations name)

  let write_chrome ~pid file =
    let oc = open_out file in
    output_string oc "{\"traceEvents\": [\n";
    List.iteri
      (fun i (n, t0, t1, tid) ->
        Printf.fprintf oc
          "%s{\"name\": %S, \"ph\": \"X\", \"pid\": %d, \"tid\": %d, \
           \"ts\": %.3f, \"dur\": %.3f}\n"
          (if i = 0 then "" else ",")
          n pid tid (t0 *. 1e6)
          ((t1 -. t0) *. 1e6))
      (List.rev !spans);
    output_string oc "]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* The phase report: metrics, operation counts and failures, written
   as "key value" lines for run.py to merge.                           *)

module Report = struct
  let metrics : (string * float) list ref = ref []
  let infos : (string * string) list ref = ref []
  let attempted = ref 0
  let failed = ref 0
  let failures : string list ref = ref []

  (* peak resident set of this phase's children, summed, in MB *)
  let child_rss_mb = ref 0.0
  let metric name v = metrics := (name, v) :: !metrics
  let info key v = infos := (key, v) :: !infos
  let attempt n = attempted := !attempted + n

  let fail fmt =
    Printf.ksprintf
      (fun m ->
        incr failed;
        if List.length !failures < 20 then failures := m :: !failures)
      fmt

  (* one operation whose correctness was checked *)
  let check ok fmt =
    Printf.ksprintf
      (fun m ->
        attempt 1;
        if not ok then fail "%s" m)
      fmt

  let write file =
    let oc = open_out file in
    List.iter
      (fun (k, v) -> Printf.fprintf oc "metric %s %.17g\n" k v)
      (List.rev !metrics);
    List.iter
      (fun (k, v) -> Printf.fprintf oc "info %s %s\n" k v)
      (List.rev !infos);
    Printf.fprintf oc "attempted %d\nfailed %d\n" !attempted !failed;
    List.iter
      (fun m -> Printf.fprintf oc "failure %s\n" (String.escaped m))
      (List.rev !failures);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Phase context.                                                      *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;  (** this phase's measuring budget *)
  traced : bool;
  round : int;  (** which of the run's rounds this process is *)
  dir : string;  (** scratch directory of this phase, inside the checkout *)
  lfc : string;  (** the built [lfc] binary *)
}

(* ------------------------------------------------------------------ *)
(* Files.                                                              *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink p with Unix.Unix_error _ -> ())

let fresh_dir ctx name =
  let d = Filename.concat ctx.dir name in
  rm_rf d;
  mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* Child processes: started with Unix.create_process on the built
   binary (never Unix.fork, which OCaml forbids once a domain has run),
   remembered so an early exit still stops them.                       *)

let children : int list ref = ref []

let spawn ~log prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) null out out in
  Unix.close null;
  Unix.close out;
  children := pid :: !children;
  pid

let forget pid = children := List.filter (( <> ) pid) !children

(* wait, returning true on a clean exit *)
let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let ok = go () in
  forget pid;
  ok

let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (reap pid)

let () = at_exit (fun () -> List.iter stop !children)

(* ------------------------------------------------------------------ *)
(* /proc probes.                                                       *)

(* peak resident set (VmHWM) in MB, 0 when unreadable *)
let peak_rss_mb pid =
  let file =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in file with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        else go ()
    in
    let v = try go () with _ -> 0.0 in
    close_in_noerr ic;
    v

(* ------------------------------------------------------------------ *)
(* Simulated observables, compared field by field (floats as bits).    *)

let obs_equal (a : Exec.result) (b : Exec.result) =
  let fb = Int64.bits_of_float in
  fb a.Exec.cycles = fb b.Exec.cycles
  && fb a.Exec.barrier_cycles = fb b.Exec.barrier_cycles
  && Array.length a.Exec.phase_cycles = Array.length b.Exec.phase_cycles
  && Array.for_all2 (fun x y -> fb x = fb y) a.Exec.phase_cycles
       b.Exec.phase_cycles
  && a.Exec.total_refs = b.Exec.total_refs
  && a.Exec.total_misses = b.Exec.total_misses
  && a.Exec.cold_misses = b.Exec.cold_misses
  && a.Exec.tlb_misses = b.Exec.tlb_misses
  && a.Exec.proc_misses = b.Exec.proc_misses


(* ------------------------------------------------------------------ *)
(* Request draws over the standard sweep space.                        *)

module Sim = Lf_machine.Sim
module Machine = Lf_machine.Machine
module Sweep = Lf_queue.Sweep

let machines = [ Machine.ksr2; Machine.convex ]

(* The legal unfused/fused pair of one kernel x machine at one size,
   on the run-compressed engine. *)
let pair ~kernel ~machine ~nprocs ~n =
  Sweep.mix ~kernels:[ kernel ] ~machines:[ machine ]
    ~modes:[ Sim.Run_compressed ] ~nprocs ~n ()

(* [count] requests with pairwise distinct digests, skipping digests in
   [avoid].  Request i is of kernel i mod 6, so every seed gives the same
   kernel mix (and a zipf head of the same kernels); the seed draws the
   machine, the variant and n in [lo, hi]. *)
let distinct_requests st ~count ~lo ~hi ~nprocs ~avoid =
  let kernels = Array.of_list Sweep.kernel_names in
  let seen = Hashtbl.create (2 * count) in
  let rec draw i tries =
    if tries = 0 then
      failwith
        (Printf.sprintf "distinct_requests: no fresh %s request left (%d drawn)"
           kernels.(i mod Array.length kernels) i);
    let kernel = kernels.(i mod Array.length kernels) in
    match pair ~kernel ~machine:(pick st machines) ~nprocs ~n:(between st lo hi) with
    | [] -> draw i (tries - 1)
    | reqs ->
      let r = pick st reqs in
      let d = Sim.digest r in
      if Hashtbl.mem seen d || Hashtbl.mem avoid d then draw i (tries - 1)
      else begin
        Hashtbl.add seen d ();
        r
      end
  in
  List.init count (fun i -> draw i 1000)
