type labels = (string * string) list

let norm labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

type instrument =
  | Counter of { mutable c : int }
  | Poll of { mutable f : unit -> float; cumulative : bool }
  | Hist of Stats.Histogram.t

type key = string * labels

type sampling = {
  origin : float;
  interval : float;
  (* previous sampled value for counters and cumulative polls *)
  baselines : (key, float) Hashtbl.t;
  series : (key, Stats.Timeseries.t) Hashtbl.t;
}

type t = {
  tbl : (key, instrument) Hashtbl.t;
  mutable order : key list; (* registration order, newest first *)
  mutable sampling : sampling option;
}

let create () = { tbl = Hashtbl.create 64; order = []; sampling = None }

(* The installed registry. A single mutable slot, exactly like
   Trace's: the disabled case is one load-and-compare per probe site.
   The slot only selects the sink; all values and sample times come
   from the simulation itself, so determinism is unaffected.

   Like Trace, the slot is domain-local (Domain.DLS), not a
   process-global ref: each domain of a parallel campaign
   (Experiments.Sweep) installs its own registry, so concurrent
   independent runs never share instruments. A process-global ref here
   would let one domain's install clobber every other domain's probe
   sites mid-run (demonstrated by test_sweep's seeded-bug test). *)
let slot : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* How many domains currently have a registry installed. [on] is the
   single hottest probe in the tree (every counter bump and trace site
   asks it first), and a Domain.DLS.get is an out-of-line call. With
   this cross-domain count the nothing-installed case — every
   benchmark hot path — is one atomic load; only domains that might
   actually observe something pay for the DLS read. *)
let installed_domains = Atomic.make 0

let install t =
  (match Domain.DLS.get slot with
  | None -> Atomic.incr installed_domains
  | Some _ -> ());
  Domain.DLS.set slot (Some t)

let uninstall () =
  match Domain.DLS.get slot with
  | None -> ()
  | Some _ ->
      Atomic.decr installed_domains;
      Domain.DLS.set slot None

let current () = Domain.DLS.get slot

(* snfs-hot *)
let on () =
  Atomic.get installed_domains > 0
  && match Domain.DLS.get slot with None -> false | Some _ -> true

let installed () = Domain.DLS.get slot

let with_metrics t f =
  install t;
  Fun.protect ~finally:uninstall f

let kind_name = function
  | Counter _ -> "counter"
  | Poll _ -> "polled gauge"
  | Hist _ -> "histogram"

let find_or_add t name labels make =
  let key = (name, norm labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some i -> i
  | None ->
      let i = make () in
      Hashtbl.replace t.tbl key i;
      t.order <- key :: t.order;
      i

let clash name i want =
  invalid_arg
    (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name i) want)

let incr ?(labels = []) ?(n = 1) name =
  match current () with
  | None -> ()
  | Some t -> (
      match find_or_add t name labels (fun () -> Counter { c = 0 }) with
      | Counter c -> c.c <- c.c + n
      | i -> clash name i "counter")

let hist_of t name labels =
  match
    find_or_add t name labels (fun () -> Hist (Stats.Histogram.create name))
  with
  | Hist h -> h
  | i -> clash name i "histogram"

let observe ?(labels = []) name v =
  match current () with
  | None -> ()
  | Some t -> Stats.Histogram.add (hist_of t name labels) v

let register_poll ?(labels = []) ?(cumulative = false) name f =
  match current () with
  | None -> ()
  | Some t -> (
      match find_or_add t name labels (fun () -> Poll { f; cumulative }) with
      | Poll p -> p.f <- f (* last registration wins *)
      | i -> clash name i "polled gauge")

(* ---- reading ---- *)

let lookup t name labels = Hashtbl.find_opt t.tbl (name, norm labels)

let counter_value t ?(labels = []) name =
  match lookup t name labels with Some (Counter c) -> c.c | _ -> 0

let gauge_value t ?(labels = []) name =
  match lookup t name labels with
  | Some (Poll p) -> p.f ()
  | _ -> 0.0

let sorted_keys t = List.sort compare t.order

(* every instrument under [name] that [pick] accepts, sorted by labels *)
let instruments_with t name pick =
  List.filter_map
    (fun ((n, labels) as key) ->
      if String.equal n name then
        Option.bind (Hashtbl.find_opt t.tbl key) (fun i ->
            Option.map (fun v -> (labels, v)) (pick i))
      else None)
    (sorted_keys t)

let counters_with t name =
  instruments_with t name (function Counter c -> Some c.c | _ -> None)

let histograms_with t name =
  instruments_with t name (function Hist h -> Some h | _ -> None)

let histogram t ?(labels = []) name = hist_of t name labels

(* ---- sampling ---- *)

let start_sampling t ~origin ~interval =
  if interval <= 0.0 then
    invalid_arg "Metrics.start_sampling: interval must be > 0";
  let baselines = Hashtbl.create 64 in
  (* baseline = value at sampling start, so the first bin holds only
     progress made after [origin] *)
  List.iter
    (fun ((_, _) as key) ->
      match Hashtbl.find_opt t.tbl key with
      | Some (Counter c) -> Hashtbl.replace baselines key (float_of_int c.c)
      | Some (Poll p) when p.cumulative -> Hashtbl.replace baselines key (p.f ())
      | Some (Poll _ | Hist _) | None -> ())
    t.order;
  t.sampling <- Some { origin; interval; baselines; series = Hashtbl.create 64 }

let sampling_active t = t.sampling <> None

let sample t ~now =
  match t.sampling with
  | None -> ()
  | Some s ->
      (* attribute the sample to the middle of the interval that just
         ended: a sample taken exactly at a bin edge belongs to the bin
         before the edge, not after it *)
      let rel = Float.max 0.0 (now -. s.origin -. (s.interval /. 2.0)) in
      let record key v =
        let ts =
          match Hashtbl.find_opt s.series key with
          | Some ts -> ts
          | None ->
              let ts = Stats.Timeseries.create ~bin:s.interval (fst key) in
              Hashtbl.replace s.series key ts;
              ts
        in
        Stats.Timeseries.add ts ~time:rel v
      in
      let delta key cur =
        let base =
          match Hashtbl.find_opt s.baselines key with
          | Some b -> b
          | None -> 0.0 (* instrument born after sampling started *)
        in
        Hashtbl.replace s.baselines key cur;
        cur -. base
      in
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.tbl key with
          | Some (Counter c) -> record key (delta key (float_of_int c.c))
          | Some (Poll p) ->
              let cur = p.f () in
              record key (if p.cumulative then delta key cur else cur)
          | Some (Hist _) | None -> ())
        (sorted_keys t)

let series t name =
  match t.sampling with
  | None -> []
  | Some s ->
      List.filter_map
        (fun ((n, labels) as key) ->
          if String.equal n name then
            Option.map (fun ts -> (labels, ts)) (Hashtbl.find_opt s.series key)
          else None)
        (sorted_keys t)

(* ---- export ---- *)

let float_str v =
  (* fixed conversion; inputs are deterministic, so so is the text *)
  Printf.sprintf "%.9g" v

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_labels labels =
  match labels with
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label v ^ "\"") labels)
      ^ "}"

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let keys = sorted_keys t in
  let typed = Hashtbl.create 16 in
  let type_line name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.replace typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun ((name, labels) as key) ->
      match Hashtbl.find_opt t.tbl key with
      | None -> ()
      | Some (Counter c) ->
          type_line name "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" name (prom_labels labels) c.c)
      | Some (Poll p) ->
          type_line name "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (prom_labels labels)
               (float_str (p.f ())))
      | Some (Hist h) ->
          type_line name "summary";
          let q p = norm (("quantile", Printf.sprintf "%g" (p /. 100.)) :: labels) in
          List.iter
            (fun p ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" name
                   (prom_labels (q p))
                   (float_str (Stats.Histogram.percentile h p))))
            [ 50.0; 90.0; 99.0 ];
          let n = Stats.Histogram.count h in
          let sum = Stats.Histogram.mean h *. float_of_int n in
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (prom_labels labels)
               (float_str sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (prom_labels labels) n))
    keys;
  Buffer.contents buf

let series_id name labels =
  match labels with
  | [] -> name
  | labels ->
      name ^ "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "series,time,value\n";
  (match t.sampling with
  | None -> ()
  | Some s ->
      List.iter
        (fun ((name, labels) as key) ->
          match Hashtbl.find_opt s.series key with
          | None -> ()
          | Some ts ->
              List.iter
                (fun (time, v) ->
                  (* the series field is quoted: label lists contain
                     commas *)
                  Buffer.add_string buf
                    (Printf.sprintf "\"%s\",%s,%s\n" (series_id name labels)
                       (float_str time) (float_str v)))
                (Stats.Timeseries.to_list ts))
        (sorted_keys t));
  Buffer.contents buf

let report t =
  let keys = sorted_keys t in
  let buf = Buffer.create 1024 in
  let counters =
    List.filter_map
      (fun ((name, labels) as key) ->
        match Hashtbl.find_opt t.tbl key with
        | Some (Counter c) ->
            Some [ series_id name labels; string_of_int c.c ]
        | _ -> None)
      keys
  in
  let gauges =
    List.filter_map
      (fun ((name, labels) as key) ->
        match Hashtbl.find_opt t.tbl key with
        | Some (Poll p) -> Some [ series_id name labels; float_str (p.f ()) ]
        | _ -> None)
      keys
  in
  let hists =
    List.filter_map
      (fun ((name, labels) as key) ->
        match Hashtbl.find_opt t.tbl key with
        | Some (Hist h) ->
            Some
              (Printf.sprintf "%s: %s" (series_id name labels)
                 (Stats.Histogram.summary h))
        | _ -> None)
      keys
  in
  if counters <> [] then begin
    Buffer.add_string buf "== counters ==\n";
    Buffer.add_string buf
      (Stats.Table.render ~header:[ "metric"; "value" ] counters);
    Buffer.add_char buf '\n'
  end;
  if gauges <> [] then begin
    Buffer.add_string buf "== gauges ==\n";
    Buffer.add_string buf
      (Stats.Table.render ~header:[ "metric"; "value" ] gauges);
    Buffer.add_char buf '\n'
  end;
  if hists <> [] then begin
    Buffer.add_string buf "== histograms ==\n";
    List.iter
      (fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      hists;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf
