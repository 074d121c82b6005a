(* In-memory spans for the traced replay (single domain). A span records a
   name, start and end (monotonic ns), its parent span and the request it
   belongs to. With tracing off, [with_] is a plain call. *)

type t = {
  name : string;
  start : int;
  stop : int;
  parent : int;  (* index of the parent span, -1 at a root *)
  req : int;
}

let now () = Int64.to_int (Monotonic_clock.now ())

let enabled = ref false
let spans : t array ref = ref [||]
let count = ref 0
let current = ref (-1)
let request = ref 0

let reset () =
  spans := [||];
  count := 0;
  current := -1;
  request := 0

let dummy = { name = ""; start = 0; stop = 0; parent = -1; req = 0 }

(* Reserve the slot at entry so a parent's index precedes its children. *)
let alloc () =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) dummy in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  let i = !count in
  incr count;
  i

let with_ name f =
  if not !enabled then f ()
  else begin
    let i = alloc () in
    let parent = !current in
    current := i;
    let start = now () in
    let finish () =
      !spans.(i) <- { name; start; stop = now (); parent; req = !request };
      current := parent
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* A root span for request [id]; its descendants carry the same id. *)
let with_request id name f =
  request := id;
  with_ name f

let all () = Array.sub !spans 0 !count

(* Self time of each span: its duration minus the part of its interval
   covered by its children (overlapping children count once). *)
let self_times (s : t array) =
  let kids = Array.make (Array.length s) [] in
  Array.iteri (fun i sp -> if sp.parent >= 0 then kids.(sp.parent) <- i :: kids.(sp.parent)) s;
  Array.mapi
    (fun i sp ->
      let ivs =
        List.map (fun c -> (max sp.start s.(c).start, min sp.stop s.(c).stop)) kids.(i)
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) ivs
      in
      (sp.stop - sp.start) - covered)
    s

(* Self times in microseconds, grouped by span name. *)
let self_us_by_name s =
  let self = self_times s in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i sp ->
      let l = Option.value (Hashtbl.find_opt tbl sp.name) ~default:[] in
      Hashtbl.replace tbl sp.name (float_of_int self.(i) /. 1e3 :: l))
    s;
  fun name ->
    Array.of_list (Option.value (Hashtbl.find_opt tbl name) ~default:[])

let write path s =
  let self = self_times s in
  let oc = open_out path in
  output_string oc "name\treq\tparent\tstart_ns\tstop_ns\tself_ns\n";
  Array.iteri
    (fun i sp ->
      Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\t%d\n" sp.name sp.req sp.parent sp.start
        sp.stop self.(i))
    s;
  close_out oc
