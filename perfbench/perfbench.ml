(* Benchmark phase runner.  run.py starts one fresh process per phase:

     perfbench.exe PHASE --workload W --seed N --seconds S --trace 0|1
                   --round I --dir DIR --lfc PATH --out FILE

   The phase measures for about S seconds, checks its outputs, and
   writes its report (metrics, operation counts, failures) to FILE.
   With --trace 1 it also records spans around every library call it
   makes, writes them to DIR/trace.json, and adds its per-layer
   metrics. *)

open Common

let phases =
  [
    ("sweep", Sweep_phase.run);
    ("serve", Serve_phase.run);
    ("native", Native_phase.run);
    ("queue", Queue_phase.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench.exe (sweep|serve|native|queue) --workload W --seed N \
     --seconds S --trace 0|1 --round I --dir DIR --lfc PATH --out FILE";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  let phase, opts =
    match args with _ :: p :: rest -> (p, rest) | _ -> usage ()
  in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] opts in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let run = match List.assoc_opt phase phases with Some f -> f | None -> usage () in
  let ctx =
    {
      workload = get "workload";
      seed = int_of_string (get "seed");
      seconds = float_of_string (get "seconds");
      traced = get "trace" = "1";
      round = int_of_string (get "round");
      dir = get "dir";
      lfc = get "lfc";
    }
  in
  let out = get "out" in
  if ctx.workload <> "small" && ctx.workload <> "large" then usage ();
  mkdir_p ctx.dir;
  (* a terminated phase still stops its daemon or workers (at_exit) *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 1));
  Span.enabled := ctx.traced;
  Report.info "ocaml_version" Sys.ocaml_version;
  (match run ctx with
  | () -> ()
  | exception e -> Report.fail "%s: %s" phase (Printexc.to_string e));
  let self_mb = peak_rss_mb None in
  Report.info ("rss." ^ phase)
    (Printf.sprintf "%.1f MB (phase) + %.1f MB (children)" self_mb !Report.child_rss_mb);
  Report.metric "peak_rss_mb" (self_mb +. !Report.child_rss_mb);
  if ctx.traced then
    Span.write_chrome ~pid:(Unix.getpid ()) (Filename.concat ctx.dir "trace.json");
  Report.write out
