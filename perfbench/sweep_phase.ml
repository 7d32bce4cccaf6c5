(* Sweep phase: a cold, in-process simulation sweep through
   Batch.run_with — the cost of regenerating the paper's figures.
   lf_machine and lf_cache do almost all of the work; the store is only
   written. *)

open Common
module Batch = Lf_batch.Batch
module Run_opts = Lf_batch.Run_opts
module Pool = Lf_parallel.Pool

(* One request per kernel x machine x nprocs {4, 8, 16}, so every seed
   gives the same kernel and processor-count mix (which would otherwise
   swamp the spread between seeds); the seed draws n in a narrow band
   and the variant. *)
let requests ctx =
  let st = rng ~seed:ctx.seed "sweep" in
  let lo, hi = if ctx.workload = "large" then (608, 640) else (500, 524) in
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun machine ->
          List.filter_map
            (fun nprocs ->
              let rec draw tries =
                match pair ~kernel ~machine ~nprocs ~n:(between st lo hi) with
                | [] -> if tries = 0 then None else draw (tries - 1)
                | reqs -> Some (pick st reqs)
              in
              draw 20)
            [ 4; 8; 16 ])
        machines)
    Sweep.kernel_names

(* one timed batch on a fresh store root; returns (wall, outcomes) *)
let batch ctx ~pool ~jobs tag reqs =
  let opts =
    Run_opts.make ~engine:Sim.Run_compressed ~jobs
      ~store:(Run_opts.Store_cold (Some (fresh_dir ctx tag)))
      ()
  in
  let (outcomes, _), wall =
    timed (fun () ->
        Span.with_ "batch.run_with" (fun () -> Batch.run_with ~pool opts reqs))
  in
  (wall, outcomes)

let results_ok outcomes =
  Array.iter
    (fun (o : Batch.outcome) ->
      match o.Batch.result with
      | Ok _ -> Report.attempt 1
      | Error (Batch.Timed_out s) ->
        Report.attempt 1;
        Report.fail "sweep: request timed out after %.2fs" s
      | Error (Batch.Crashed m) ->
        Report.attempt 1;
        Report.fail "sweep: request crashed: %s" m)
    outcomes

(* Re-simulate a seeded subset on the scalar Miss_only tier: every
   counter must equal the run-compressed result. *)
let check_tiers ctx ~pool reqs outcomes =
  let st = rng ~seed:ctx.seed "sweep-check" in
  let indexed = List.mapi (fun i r -> (i, r)) reqs in
  let cheap =
    List.filter (fun (_, (r : Sim.request)) -> r.Sim.nprocs = 4) indexed
  in
  let candidates = if cheap = [] then indexed else cheap in
  let chosen = List.init 2 (fun _ -> pick st candidates) in
  List.iter
    (fun (i, (r : Sim.request)) ->
      let scalar =
        Exec.run_opts (Exec.opts ~jobs:2 ~pool ())
          { r with Sim.mode = Sim.Miss_only }
      in
      match outcomes.(i).Batch.result with
      | Ok fast ->
        Report.check (obs_equal scalar fast)
          "sweep: Miss_only counters differ from Run_compressed for %s"
          (Format.asprintf "%a" Sim.pp r)
      | Error _ -> ())
    chosen

(* Layer breakdown on a seeded subset (one request per kernel x
   machine), measured serially in-process, then as batches at jobs 1
   and 2. *)
let layers ctx ~pool reqs =
  let st = rng ~seed:ctx.seed "sweep-layers" in
  let keep = Array.init (List.length reqs) (fun _ -> Random.State.int st 3) in
  let reqs = List.filteri (fun i _ -> i mod 3 = keep.(i / 3)) reqs in
  let sched =
    sum
      (List.map
         (fun r ->
           snd
             (timed (fun () ->
                  Span.with_ "core.schedule_of" (fun () -> Sim.schedule_of r))))
         reqs)
  in
  let runs =
    List.map
      (fun r ->
        timed (fun () ->
            Span.with_ "machine.run_opts" (fun () ->
                Exec.run_opts (Exec.opts ~jobs:1 ()) r)))
      reqs
  in
  let run_s = sum (List.map snd runs) in
  let refs = List.fold_left (fun a (r, _) -> a + r.Exec.total_refs) 0 runs in
  let misses = List.fold_left (fun a (r, _) -> a + r.Exec.total_misses) 0 runs in
  let store = Batch.Store.open_ ~dir:(fresh_dir ctx "writes") () in
  let writes =
    List.map2
      (fun req (res, _) ->
        snd
          (timed (fun () ->
               Span.with_ "batch.store_add" (fun () ->
                   ignore (Batch.Store.add store req res)))))
      reqs runs
  in
  let wall1, outcomes1 = batch ctx ~pool ~jobs:1 "jobs1" reqs in
  let wall2, outcomes2 = batch ctx ~pool ~jobs:2 "jobs2" reqs in
  results_ok outcomes1;
  results_ok outcomes2;
  let replay = run_s -. sched in
  Report.metric "core.schedule_ms" (sched *. 1e3);
  Report.metric "machine.replay_ms" (replay *. 1e3);
  Report.metric "machine.ns_per_ref" (replay *. 1e9 /. float_of_int refs);
  Report.metric "machine.jobs_speedup" (wall1 /. wall2);
  Report.metric "batch.store_write_us" (median writes *. 1e6);
  Report.metric "batch.overhead_ms" ((wall1 -. run_s -. sum writes) *. 1e3);
  Report.metric "cache.refs" (float_of_int refs);
  Report.metric "cache.misses" (float_of_int misses);
  (* floors for the store: a raw read of one entry, a bare rename *)
  let entry =
    let d = Batch.Store.dir store in
    let rec first d =
      Array.fold_left
        (fun acc f ->
          match acc with
          | Some _ -> acc
          | None ->
            let p = Filename.concat d f in
            if Sys.is_directory p then first p else Some p)
        None (Sys.readdir d)
    in
    first d
  in
  (match entry with
  | Some p ->
    let reads =
      List.init 200 (fun _ ->
          snd
            (timed (fun () ->
                 In_channel.with_open_bin p In_channel.input_all |> ignore)))
    in
    Report.metric "floor.file_read_us" (median reads *. 1e6)
  | None -> Report.fail "sweep: store holds no entry to read");
  let a = Filename.concat ctx.dir "rename.a" and b = Filename.concat ctx.dir "rename.b" in
  Out_channel.with_open_bin a (fun oc -> output_string oc "x");
  let renames =
    List.init 200 (fun i ->
        let src, dst = if i mod 2 = 0 then (a, b) else (b, a) in
        snd (timed (fun () -> Sys.rename src dst)))
  in
  Report.metric "floor.rename_us" (median renames *. 1e6)

let run ctx =
  let reqs, setup = timed (fun () -> requests ctx) in
  Report.metric "setup_s" setup;
  let n = List.length reqs in
  Report.info "sweep.requests" (string_of_int n);
  Pool.with_pool 2 (fun pool ->
      (* batches until the slice is spent; the median one counts (a
         two-domain batch only rarely gets both cores to itself, so its
         fastest batch is an outlier) *)
      let t_end = now () +. ctx.seconds in
      let rec go i acc =
        if i >= 1 && now () > t_end then List.rev acc
        else begin
          let wall, outcomes = batch ctx ~pool ~jobs:2 (Printf.sprintf "b%d" i) reqs in
          results_ok outcomes;
          go (i + 1) ((wall, outcomes) :: acc)
        end
      in
      let batches = go 0 [] in
      let wall2 = median (List.map fst batches) in
      Report.metric "sweep_rps" (float_of_int n /. wall2);
      if ctx.round = 0 then check_tiers ctx ~pool reqs (snd (List.hd batches));
      if ctx.traced then layers ctx ~pool reqs)
