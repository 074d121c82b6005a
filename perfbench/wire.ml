(* Driving the shipped systemr_server binary as a child process: spawn it
   on a seed script, talk to it over its wire protocol, read its memory
   figures from /proc, stop it. *)

open Perfbench

let server_exe = "_build/default/bin/systemr_server.exe"

type server = { pid : int; out : Unix.file_descr; sock : string }

let live : server list ref = ref []

let reap pid =
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 -> Unix.sleepf 0.01; wait (tries - 1)
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait tries
  in
  wait 500

let stop s =
  if List.memq s !live then begin
    live := List.filter (fun x -> x != s) !live;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    reap s.pid;
    Unix.close s.out;
    try Sys.remove s.sock with Sys_error _ -> ()
  end

(* Never leave a server behind, whatever path the benchmark exits by. *)
let () = at_exit (fun () -> List.iter stop !live)

(* Read the server's first stdout line ("listening on ..."), giving up
   after [timeout] seconds. *)
let first_line fd ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let b = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then failwith "server did not start in time";
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ ->
      if Unix.read fd byte 0 1 = 0 then failwith "server exited before listening"
      else if Bytes.get byte 0 = '\n' then Buffer.contents b
      else (Buffer.add_char b (Bytes.get byte 0); go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Default settings: 64-page buffer pool, group commit on, no commit delay,
   WAL flushed to its in-memory image with no device sync. *)
let spawn ~script ~sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process server_exe
      [| server_exe; "--socket"; sock; "--file"; script |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let s = { pid; out = r; sock } in
  live := s :: !live;
  let line = first_line r ~timeout:120. in
  if not (String.starts_with ~prefix:"listening on" line) then
    failwith ("unexpected server output: " ^ line);
  s

(* A memory figure of the server process from /proc, in MB: "VmRSS"
   (resident now) or "VmHWM" (peak resident so far). *)
let status_mb s field =
  let ic = open_in (Printf.sprintf "/proc/%d/status" s.pid) in
  let prefix = field ^ ":" in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix l ->
      Scanf.sscanf (String.sub l (String.length prefix) (String.length l - String.length prefix))
        " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let connect s = Client.connect (Server.Unix_sock s.sock)

(* The requests one op sends, in order: Simple text, a prepared Execute,
   or a BEGIN ... COMMIT of Simple statements. *)
let requests (ds : Gen.t) (op : Gen.op) =
  let simple sql = Protocol.Simple sql in
  let execute name k =
    Protocol.Execute { name; params = Some [ Rel.Value.Int k ]; fetch = 0 }
  in
  match op with
  | Gen.Point k -> [ simple (Gen.point_sql k) ]
  | Gen.Join k -> [ simple (Gen.join_sql k) ]
  | Gen.Prep_point k -> [ execute "pt" k ]
  | Gen.Prep_join k -> [ execute "jn" k ]
  | Gen.Query i -> [ simple ds.Gen.queries.(i).Gen.sql ]
  | Gen.Update (k, n) -> [ simple (Gen.update_sql k n) ]
  | Gen.Reinsert (k, n) -> List.map simple (Gen.reinsert_sqls k n)

(* The op's answer from its replies, in request order. *)
let answer (op : Gen.op) (replies : Client.reply list) =
  match op, replies with
  | (Gen.Update _ | Gen.Reinsert _), _ ->
    Check.Tags (List.map (fun r -> r.Client.tag) replies)
  | _, [ r ] -> Check.Rows r.Client.rows
  | _ -> Check.Rows []

let prepare c =
  List.iter (fun (name, sql) -> ignore (Client.ok (Client.parse c ~name sql))) Gen.prepared

(* Per-op log of one connection: class, start and end (ns), answer right;
   and how many ops of each class it holds. *)
type log = {
  mutable n : int;
  mutable cls : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable good : bool array;
  per_cls : int array;
}

let new_log () =
  { n = 0; cls = Array.make 4096 0; t0 = Array.make 4096 0; t1 = Array.make 4096 0;
    good = Array.make 4096 false; per_cls = Array.make 3 0 }

let record l ~cls ~t0 ~t1 ~good =
  if l.n = Array.length l.cls then begin
    let grow a d = Array.append a (Array.make (Array.length a) d) in
    l.cls <- grow l.cls 0;
    l.t0 <- grow l.t0 0;
    l.t1 <- grow l.t1 0;
    l.good <- grow l.good false
  end;
  l.cls.(l.n) <- cls;
  l.t0.(l.n) <- t0;
  l.t1.(l.n) <- t1;
  l.good.(l.n) <- good;
  l.per_cls.(cls) <- l.per_cls.(cls) + 1;
  l.n <- l.n + 1

(* One op over the connection: each request waits for its reply (closed
   loop); a failed statement inside the transaction is rolled back. *)
let exec c ds op =
  let replies =
    List.fold_left
      (fun acc msg ->
        match acc with
        | None -> None
        | Some rs ->
          Client.send c msg;
          Client.flush c;
          let r = Client.read_reply c in
          if r.Client.error = None then Some (r :: rs)
          else begin
            (match op with
             | Gen.Reinsert _ -> ignore (Client.simple c "ROLLBACK")
             | _ -> ());
            None
          end)
      (Some []) (requests ds op)
  in
  Option.map (fun rs -> answer op (List.rev rs)) replies

(* Closed loop on one connection until [stop ()]: send an op, wait for its
   reply, check it, record it. A lost connection ends the loop with that op
   failed. *)
let drive c ds ~reference ~stream ~stop log =
  let lost = ref false in
  while (not !lost) && not (stop ()) do
    let op = stream () in
    let t0 = Span.now () in
    let good =
      match exec c ds op with
      | Some reply -> Check.op ds ~reference op reply
      | None -> false
      | exception (Client.Disconnected | Protocol.Disconnected | Protocol.Malformed _
                  | Unix.Unix_error _ | End_of_file | Failure _) ->
        lost := true;
        false
    in
    record log ~cls:(Gen.cls_index (Gen.cls op)) ~t0 ~t1:(Span.now ()) ~good
  done

(* The warm-up: [n] ops on one connection, pipelined in batches (every
   request of a batch sent, then every reply read), each op checked and
   recorded as [drive] does. The server works through a batch back to back,
   so set-up time is the server's work rather than the host's wake-up
   latency between requests. A lost connection ends it with that op failed. *)
let warm_up c ds ~reference ~stream ~n log =
  let batch = 50 in
  let left = ref n in
  while !left > 0 do
    let ops =
      List.init (min batch !left) (fun _ ->
          let op = stream () in
          (op, requests ds op))
    in
    left := !left - List.length ops;
    let t0 = Span.now () in
    let record op good =
      record log ~cls:(Gen.cls_index (Gen.cls op)) ~t0 ~t1:(Span.now ()) ~good
    in
    match
      List.iter (fun (_, msgs) -> List.iter (Client.send c) msgs) ops;
      Client.flush c;
      List.iter
        (fun (op, msgs) ->
          let replies = List.map (fun _ -> Client.read_reply c) msgs in
          record op
            (List.for_all (fun r -> r.Client.error = None) replies
             && Check.op ds ~reference op (answer op replies)))
        ops
    with
    | () -> ()
    | exception (Client.Disconnected | Protocol.Disconnected | Protocol.Malformed _
                | Unix.Unix_error _ | End_of_file | Failure _) ->
      record (fst (List.hd ops)) false;
      left := 0
  done

(* Engine-wide group-commit totals, read from the server's EXPLAIN text:
   (commits made durable by group flushes, group flushes). *)
let group_commit c (ds : Gen.t) =
  let probe =
    match ds.Gen.workload with
    | Gen.Analytic -> "EXPLAIN SELECT CUSTKEY FROM CUSTOMER WHERE CUSTKEY = 0"
    | Gen.Point_text | Gen.Mixed_rw -> "EXPLAIN SELECT V FROM KV WHERE K = 0"
  in
  let text = (Client.ok (Client.simple c probe)).Client.tag in
  List.find_map
    (fun line ->
      if String.starts_with ~prefix:"group commit:" line then
        Scanf.sscanf line "group commit: %_s delay=%_s commits=%d flushes=%d"
          (fun c f -> Some (c, f))
      else None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:(0, 0)
