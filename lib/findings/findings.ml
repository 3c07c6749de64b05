(** The one finding/report vocabulary shared by every analysis.

    The sanitizer ({!Gpu_san.Report}) and the three analyses behind
    [rmtgpu lint] ({!Harness.Lint}: the SoR contract checker, the
    sanitized run, the translation validator) all end in the same place:
    a list of findings that must be ordered by severity, rendered for
    humans and as JSON, and folded into a process exit code for CI.
    This module owns that plumbing so the analyses cannot drift — same
    severity ranking, same JSON envelope ([clean] + [findings]), same
    exit-code policy (0 clean, 1 findings). *)

module Json = Gpu_trace.Json

type severity = Error | Warning | Info

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(** One finding. [detail] entries are spliced verbatim into the
    finding's JSON object (after the standard fields), so an analysis
    can expose structured evidence — conflicting accesses, predicted vs
    measured counters — without this module knowing its shape.
    [notes] are extra human-readable lines indented under the finding
    in text output. *)
type finding = {
  f_severity : severity;
  f_category : string;  (** stable machine id, e.g. ["sor"], ["race-ww"] *)
  f_site : int option;  (** program-order site id in the subject kernel *)
  f_inst : string option;  (** pretty-printed instruction at [f_site] *)
  f_space : string option;  (** ["global"] / ["local"] when relevant *)
  f_message : string;
  f_detail : (string * Json.t) list;
  f_notes : string list;
}

let make ?(severity = Error) ?site ?inst ?space ?(detail = []) ?(notes = [])
    ~category message =
  {
    f_severity = severity;
    f_category = category;
    f_site = site;
    f_inst = inst;
    f_space = space;
    f_message = message;
    f_detail = detail;
    f_notes = notes;
  }

(** Severity-major, otherwise stable (analyses emit in program order). *)
let sort fs =
  List.stable_sort
    (fun a b -> compare (severity_rank a.f_severity) (severity_rank b.f_severity))
    fs

(** A report is clean when nothing error-level survived; warnings and
    informational findings do not gate. *)
let clean fs = not (List.exists (fun f -> f.f_severity = Error) fs)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_string f =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (severity_name f.f_severity);
  Buffer.add_string buf ("[" ^ f.f_category ^ "]");
  (match f.f_site with
  | Some s ->
      Buffer.add_string buf (Printf.sprintf " site %d" s);
      (match f.f_inst with
      | Some i -> Buffer.add_string buf (Printf.sprintf " (%s)" i)
      | None -> ())
  | None -> ());
  (match f.f_space with
  | Some sp -> Buffer.add_string buf (" " ^ sp)
  | None -> ());
  Buffer.add_string buf (": " ^ f.f_message);
  List.iter (fun n -> Buffer.add_string buf ("\n  " ^ n)) f.f_notes;
  Buffer.contents buf

let list_to_string ?(indent = "") fs =
  let fs = sort fs in
  String.concat ""
    (List.map
       (fun f ->
         String.concat "\n"
           (List.map (fun l -> indent ^ l)
              (String.split_on_char '\n' (to_string f)))
         ^ "\n")
       fs)

let to_json f : Json.t =
  let opt_str = function Some s -> Json.Str s | None -> Json.Null in
  Obj
    ([
       ("severity", Json.Str (severity_name f.f_severity));
       ("category", Json.Str f.f_category);
       ( "site",
         match f.f_site with Some s -> Json.Int s | None -> Json.Null );
       ("inst", opt_str f.f_inst);
       ("space", opt_str f.f_space);
       ("message", Json.Str f.f_message);
     ]
    @ f.f_detail)

(** The shared JSON envelope: [{"clean": bool, "findings": [...]}]. *)
let list_to_json fs : Json.t =
  let fs = sort fs in
  Obj [ ("clean", Bool (clean fs)); ("findings", List (List.map to_json fs)) ]
