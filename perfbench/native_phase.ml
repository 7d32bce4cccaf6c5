(* Native phase: lf_native runs the fused and unfused schedules of LL18,
   calc and filter on two domains at footprints above the host's L2,
   and lf_lazy records, plans and forces the heat and blur2 traces.
   The paper's effect on real hardware; the simulator does no work
   here. *)

open Common
module Ir = Lf_ir.Ir
module Interp = Lf_ir.Interp
module Schedule = Lf_core.Schedule
module Derive = Lf_core.Derive
module Native = Lf_native.Native
module Pool = Lf_parallel.Pool
module Spin_barrier = Lf_parallel.Spin_barrier
module Trace = Lf_lazy.Trace
module Ctx = Lf_lazy.Ctx
module Plan = Lf_lazy.Plan
module Eval = Lf_lazy.Eval

(* Problem sizes per workload: every kernel's footprint is above the
   2 MB L2 of the reference host (1.2-2.3x for small, 1.9-3.8x for
   large).  Native.verify interprets the reference serially, which
   bounds how large they can be. *)
let size ctx = if ctx.workload = "large" then 288 else 224
let lazy_sizes ctx = if ctx.workload = "large" then (1 lsl 15, 192) else (1 lsl 14, 128)

let kernels n =
  [
    ("ll18", Lf_kernels.Ll18.program ~n ());
    ("calc", Lf_kernels.Calc.program ~n ());
    ("filter", Lf_kernels.Filter.program ~rows:n ~cols:n ());
  ]

(* Inputs: the reference initialiser scaled per array by a seeded
   factor, so each seed gives other values of the same magnitude. *)
let init_of ctx =
  let scales = Hashtbl.create 16 in
  let scale name =
    match Hashtbl.find_opt scales name with
    | Some s -> s
    | None ->
      let s = 0.75 +. Random.State.float (rng ~seed:ctx.seed ("native-init " ^ name)) 0.5 in
      Hashtbl.add scales name s;
      s
  in
  fun name k -> Interp.default_init name k *. scale name

let footprint_bytes (p : Ir.program) =
  List.fold_left (fun a d -> a + (8 * Ir.num_elements d)) 0 p.Ir.decls

(* bytes the kernel reads and writes: every reference of every point *)
let computed_bytes (p : Ir.program) =
  List.fold_left
    (fun a (nest : Ir.nest) ->
      let points =
        List.fold_left (fun a (l : Ir.level) -> a * (l.Ir.hi - l.Ir.lo + 1)) 1 nest.Ir.levels
      in
      a + (8 * points * List.length (Ir.nest_refs nest)))
    0 p.Ir.nests

type kernel = {
  name : string;
  prog : Ir.program;
  fused : Schedule.t;
  unfused : Schedule.t;
  buf : Native.buffers;
  mutable verified : (float * float) option;  (** (fused, unfused) checksums *)
}

let schedules ~nprocs p =
  let strip = Sweep.strip_for Machine.convex p in
  let derive = Derive.of_program ~depth:1 p in
  (Schedule.fused ~nprocs ~strip ~derive p, Schedule.unfused ~nprocs p)

let verify ~pool ~init name tag s =
  match Span.with_ "native.verify" (fun () -> Native.verify ~init ~pool s) with
  | Ok () -> Report.check true "native"
  | Error m -> Report.check false "native: %s %s is not bit-identical: %s" name tag m

(* run once onto reset buffers; returns seconds *)
let run_once ~pool ~init buf s span =
  Native.reset ~init buf;
  snd (timed (fun () -> Span.with_ span (fun () -> Native.run_into ~pool buf s)))

let setup_kernels ctx ~pool =
  let init = init_of ctx in
  List.map
    (fun (name, prog) ->
      let fused, unfused = schedules ~nprocs:2 prog in
      let buf = Native.create ~init prog in
      verify ~pool ~init name "fused" fused;
      verify ~pool ~init name "unfused" unfused;
      let k = { name; prog; fused; unfused; buf; verified = None } in
      ignore (run_once ~pool ~init buf fused "native.run");
      let cf = Native.checksum buf in
      ignore (run_once ~pool ~init buf unfused "native.run");
      k.verified <- Some (cf, Native.checksum buf);
      k)
    (kernels (size ctx))

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

(* ------------------------------------------------------------------ *)
(* Lazy traces: record (Trace.load) + plan + force (Ctx.flush).        *)

let trace_files ctx =
  let nh, nb = lazy_sizes ctx in
  List.map
    (fun (name, n) ->
      let file = Filename.concat ctx.dir (name ^ ".trace") in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Option.get (Trace.builtin_text name)));
      (name, n, file))
    [ ("heat", nh); ("blur2", nb) ]

let load (name, n, file) =
  match Span.with_ "lazy.load" (fun () -> Trace.load ~n file) with
  | Ok (cx, _) -> cx
  | Error m -> failwith (Printf.sprintf "lazy: %s: %s" name m)

(* one record + plan + force of every trace; returns the three parts *)
let force_all ~fuse traces =
  List.fold_left
    (fun (l, p, f) tr ->
      let cx, tl = timed (fun () -> load tr) in
      let _, tp = timed (fun () -> Span.with_ "lazy.plan" (fun () -> Ctx.plan ~fuse cx)) in
      let (), tf = timed (fun () -> Span.with_ "lazy.flush" (fun () -> Ctx.flush ~fuse cx)) in
      (l +. tl, p +. tp, f +. tf))
    (0.0, 0.0, 0.0) traces

let envs_equal (a : Eval.env) (b : Eval.env) =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k v acc ->
         acc
         &&
         match Hashtbl.find_opt b k with
         | Some v' ->
           Array.length v = Array.length v' && Array.for_all2 bits_equal v v'
         | None -> false)
       a true

let check_lazy traces =
  List.iter
    (fun ((name, _, _) as tr) ->
      let cx = load tr in
      List.iter
        (fun fuse ->
          let plan = Ctx.plan ~fuse cx in
          Report.check
            (envs_equal (Eval.eager plan) (Eval.materialise plan))
            "lazy: %s (fuse %b): planned and eager evaluation differ" name fuse)
        [ true; false ])
    traces

let blocks traces =
  List.fold_left
    (fun a tr -> a + List.length (Ctx.plan (load tr)).Plan.blocks)
    0 traces

(* ------------------------------------------------------------------ *)
(* Floors: a two-domain spin-barrier round, a STREAM-style triad.      *)

let barrier_us pool =
  let b = Spin_barrier.create 2 and rounds = 20_000 in
  let (), t = timed (fun () -> Pool.run pool (fun _ -> for _ = 1 to rounds do Spin_barrier.wait b done)) in
  t *. 1e6 /. float_of_int rounds

let triad_gbs pool ~bytes =
  let n = max 1024 (bytes / 24) in
  let a = Array.make n 0.0 and b = Array.make n 1.0 and c = Array.make n 2.0 in
  let once () =
    snd
      (timed (fun () ->
           Pool.parallel_for_blocks pool ~lo:0 ~hi:(n - 1) (fun lo hi ->
               for i = lo to hi do
                 Array.unsafe_set a i (Array.unsafe_get b i +. (3.0 *. Array.unsafe_get c i))
               done)))
  in
  ignore (once ());
  float_of_int (24 * n) /. median (List.init 7 (fun _ -> once ())) /. 1e9

(* ------------------------------------------------------------------ *)

let run ctx =
  let init = init_of ctx in
  let traces = trace_files ctx in
  Pool.with_pool 2 (fun pool ->
      let ks, setup = timed (fun () -> setup_kernels ctx ~pool) in
      Report.metric "setup_s" setup;
      let verify_s = Span.total "native.verify" in
      Report.info "native.size"
        (Printf.sprintf "n=%d, footprints %s" (size ctx)
           (String.concat ", "
              (List.map
                 (fun k -> Printf.sprintf "%s %.1f MB" k.name
                     (float_of_int (footprint_bytes k.prog) /. 1048576.0))
                 ks)));
      (* Timed: alternate unfused and fused runs of each kernel, with an
         untimed reset before each.  The headline is the minimum (the
         Bench_timer policy): interference from other tenants of the
         host only ever adds time.  It comes and goes for seconds at a
         time, so run.py spreads the rounds of a run over its whole
         length and keeps the fastest. *)
      let per_kernel = 0.6 *. ctx.seconds /. float_of_int (List.length ks) in
      let samples = Hashtbl.create 8 in
      let add key v = Hashtbl.replace samples key (v :: Option.value (Hashtbl.find_opt samples key) ~default:[]) in
      List.iter
        (fun k ->
          let t_end = now () +. per_kernel in
          let i = ref 0 in
          while !i < 3 || now () < t_end do
            add (k.name, `Unfused) (run_once ~pool ~init k.buf k.unfused "native.unfused");
            add (k.name, `Fused) (run_once ~pool ~init k.buf k.fused "native.fused");
            Report.attempt 2;
            incr i
          done;
          (* the checksums after timing must equal the verified ones *)
          let cf, cu = Option.get k.verified in
          Report.check (bits_equal (Native.checksum k.buf) cf)
            "native: %s fused checksum after timing differs" k.name;
          ignore (run_once ~pool ~init k.buf k.unfused "native.run");
          Report.check (bits_equal (Native.checksum k.buf) cu)
            "native: %s unfused checksum after timing differs" k.name)
        ks;
      Report.info "native.samples"
        (String.concat ", "
           (List.map
              (fun k ->
                Printf.sprintf "%s %d" k.name
                  (List.length (Hashtbl.find samples (k.name, `Fused))))
              ks)
        ^ " runs per schedule");
      let timings =
        List.map
          (fun k ->
            (k, minimum (Hashtbl.find samples (k.name, `Fused)),
             minimum (Hashtbl.find samples (k.name, `Unfused))))
          ks
      in
      Report.metric "native_fused_ms" (1e3 *. sum (List.map (fun (_, f, _) -> f) timings));
      Report.metric "native_unfused_ms" (1e3 *. sum (List.map (fun (_, _, u) -> u) timings));
      if ctx.traced then begin
        List.iter
          (fun (k, f, u) ->
            let p = "native." ^ k.name in
            Report.metric (p ^ ".fused_ms") (1e3 *. f);
            Report.metric (p ^ ".unfused_ms") (1e3 *. u);
            Report.metric (p ^ ".speedup") (u /. f);
            Report.metric (p ^ ".gbs") (float_of_int (computed_bytes k.prog) /. f /. 1e9);
            (* one domain: its own schedule, verified before timing *)
            let f1, _ = schedules ~nprocs:1 k.prog in
            Pool.with_pool 1 (fun pool1 ->
                verify ~pool:pool1 ~init k.name "fused (1 domain)" f1;
                let ts =
                  List.init 5 (fun _ -> run_once ~pool:pool1 ~init k.buf f1 "native.fused_p1")
                in
                Report.metric (p ^ ".p1_fused_ms") (1e3 *. minimum ts)))
          timings;
        Report.metric "native.verify_ms" (1e3 *. verify_s);
        Report.metric "parallel.barrier_us" (barrier_us pool);
        Report.metric "floor.triad_gbs"
          (triad_gbs pool
             ~bytes:(List.fold_left (fun a k -> max a (footprint_bytes k.prog)) 0 ks))
      end);
  (* Lazy traces, after the pool is gone: lf_lazy runs on one domain,
     and idle domains would join every minor collection. *)
  check_lazy traces;
  let t_end = now () +. (0.4 *. ctx.seconds) in
  let reps = ref [] in
  while List.length !reps < 3 || now () < t_end do
    reps := force_all ~fuse:true traces :: !reps;
    Report.attempt 1
  done;
  let reps = !reps in
  Report.info "lazy.samples" (Printf.sprintf "%d reps" (List.length reps));
  let fastest f = minimum (List.map f reps) in
  Report.metric "lazy_force_ms" (1e3 *. fastest (fun (l, p, f) -> l +. p +. f));
  if ctx.traced then begin
    Report.metric "lazy.load_us" (1e6 *. fastest (fun (l, _, _) -> l));
    Report.metric "lazy.plan_us" (1e6 *. fastest (fun (_, p, _) -> p));
    Report.metric "lazy.blocks" (float_of_int (blocks traces));
    let ops = List.init 5 (fun _ -> force_all ~fuse:false traces) in
    Report.metric "lazy.force_op_ms"
      (1e3 *. minimum (List.map (fun (l, p, f) -> l +. p +. f) ops))
  end
