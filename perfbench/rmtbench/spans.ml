(** Host-time spans of the traced replay.

    Every traced job opens one job span; each layer call inside it opens
    a flat child span. Layer spans never nest, so a job's wall time is
    exactly the sum of its layer times plus the remainder, reported as
    [harness.run_glue]. Spans stay in memory and are written once, at
    exit, as a Chrome trace (load it in Perfetto). *)

module Json = Gpu_trace.Json

type span = {
  sid : int;
  job : int;
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
  parent : int option;
}

type t = {
  origin : float;
  mutable next_sid : int;
  mutable spans : span list;  (** most recent first *)
  layers : (string, float) Hashtbl.t;  (** current job: layer -> seconds *)
  mutable current : (int * int) option;  (** job id, job span id *)
}

let now = Unix.gettimeofday

let create () =
  {
    origin = now ();
    next_sid = 0;
    spans = [];
    layers = Hashtbl.create 16;
    current = None;
  }

let fresh t =
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  sid

let charge t layer dt =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.layers layer) in
  Hashtbl.replace t.layers layer (prev +. dt)

(** [layer t name f] runs [f] as one span of layer [name] inside the
    current job. *)
let layer t layer f =
  match t.current with
  | None -> invalid_arg ("Spans.layer outside a job: " ^ layer)
  | Some (job, parent) ->
      let t0 = now () in
      let finish () =
        let t1 = now () in
        t.spans <-
          { sid = fresh t; job; layer; name = layer; t0; t1; parent = Some parent }
          :: t.spans;
        charge t layer (t1 -. t0)
      in
      Fun.protect ~finally:finish f

(** [job t ~id ~name f] runs [f] as job [id]; returns its result, the
    job's wall seconds and its seconds per layer, [harness.run_glue]
    (wall minus the layer spans) included. *)
let job t ~id ~name f =
  let sid = fresh t in
  t.current <- Some (id, sid);
  Hashtbl.reset t.layers;
  let t0 = now () in
  let r = Fun.protect ~finally:(fun () -> t.current <- None) f in
  let t1 = now () in
  let wall = t1 -. t0 in
  t.spans <-
    { sid; job = id; layer = "harness.job"; name; t0; t1; parent = None }
    :: t.spans;
  let inner = Hashtbl.fold (fun _ dt acc -> acc +. dt) t.layers 0.0 in
  charge t "harness.run_glue" (wall -. inner);
  (r, wall, List.of_seq (Hashtbl.to_seq t.layers))

let to_chrome t : Json.t =
  let us x = Json.Int (int_of_float (x *. 1e6)) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.layer);
        ("ph", Json.Str "X");
        ("ts", us (s.t0 -. t.origin));
        ("dur", us (s.t1 -. s.t0));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("job", Json.Int s.job);
              ("span", Json.Int s.sid);
              ( "parent",
                match s.parent with Some p -> Json.Int p | None -> Json.Null );
            ] );
      ]
  in
  let meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.Str "rmtbench host") ]);
      ]
  in
  (* parents before children, in start order *)
  let ordered =
    List.stable_sort
      (fun a b ->
        match compare a.t0 b.t0 with
        | 0 -> compare (a.parent <> None) (b.parent <> None)
        | c -> c)
      (List.rev t.spans)
  in
  Json.Obj [ ("traceEvents", Json.List (meta :: List.map event ordered)) ]

let write_chrome t path =
  let oc = open_out path in
  output_string oc (Json.to_string (to_chrome t));
  output_char oc '\n';
  close_out oc

(** A layer timer that is polymorphic in the timed call's result, so
    one job body serves both the untraced and the traced execution. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { time = (fun _ f -> f ()) }
let traced t = { time = (fun name f -> layer t name f) }
