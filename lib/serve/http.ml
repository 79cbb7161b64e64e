type request = {
  meth : string;
  target : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
  version : string;
}

type error =
  | Timeout
  | Closed
  | Too_large of string
  | Malformed of string

let error_to_string = function
  | Timeout -> "timeout"
  | Closed -> "peer closed"
  | Too_large what -> "too large: " ^ what
  | Malformed what -> "malformed: " ^ what

exception Err of error

(* ------------------------------------------------------------------ *)
(* Percent decoding                                                    *)
(* ------------------------------------------------------------------ *)

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' ->
        Buffer.add_char buf ' ';
        incr i
    | '%' when !i + 2 < n -> (
        match (hex_digit s.[!i + 1], hex_digit s.[!i + 2]) with
        | Some a, Some b ->
            Buffer.add_char buf (Char.chr ((16 * a) + b));
            i := !i + 3
        | _ ->
            Buffer.add_char buf '%';
            incr i)
    | c ->
        Buffer.add_char buf c;
        incr i)
  done;
  Buffer.contents buf

let parse_query s =
  if s = "" then []
  else
    String.split_on_char '&' s
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | None -> Some (percent_decode kv, "")
             | Some i ->
                 Some
                   ( percent_decode (String.sub kv 0 i),
                     percent_decode
                       (String.sub kv (i + 1) (String.length kv - i - 1)) ))

(* ------------------------------------------------------------------ *)
(* Shared parsing helpers                                               *)
(* ------------------------------------------------------------------ *)

let header req name =
  List.assoc_opt (String.lowercase_ascii name) req.headers

let split_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some i ->
      ( percent_decode (String.sub target 0 i),
        parse_query (String.sub target (i + 1) (String.length target - i - 1))
      )

let parse_header_line line =
  match String.index_opt line ':' with
  | None | Some 0 -> raise (Err (Malformed "header without name"))
  | Some i ->
      let name = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      (name, value)

let parse_request_line line =
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | [ meth; target; version ] ->
      if not (String.length version >= 7 && String.sub version 0 7 = "HTTP/1.")
      then raise (Err (Malformed "unsupported version"));
      (String.uppercase_ascii meth, target, version)
  | _ -> raise (Err (Malformed "bad request line"))

let content_length_of headers ~max_body =
  if List.mem_assoc "transfer-encoding" headers then
    raise (Err (Malformed "transfer-encoding unsupported"));
  match List.assoc_opt "content-length" headers with
  | None -> 0
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | None -> raise (Err (Malformed "bad content-length"))
      | Some n when n < 0 -> raise (Err (Malformed "bad content-length"))
      | Some n when n > max_body -> raise (Err (Too_large "body"))
      | Some n -> n)

let wants_keep_alive req =
  match Option.map String.lowercase_ascii (header req "connection") with
  | Some "close" -> false
  | Some v when v = "keep-alive" -> true
  | _ -> req.version <> "HTTP/1.0"

(* ------------------------------------------------------------------ *)
(* Incremental request parser                                          *)
(* ------------------------------------------------------------------ *)

module Parser = struct
  type limits = { max_line : int; max_headers : int; max_body : int }

  type state =
    | Head
    | Body of {
        meth : string;
        target : string;
        version : string;
        headers : (string * string) list;
        need : int;
      }
    | Broken of error

  type t = {
    lim : limits;
    mutable data : Bytes.t;
    mutable len : int;
    mutable scan : int; (* resume point for the blank-line search *)
    mutable line_start : int; (* start of the line [scan] is inside *)
    mutable state : state;
  }

  type outcome = [ `Request of request | `Await | `Error of error ]

  let create ?(max_line = 8192) ?(max_headers = 64) ?(max_body = 1_048_576) ()
      =
    {
      lim = { max_line; max_headers; max_body };
      data = Bytes.create 1024;
      len = 0;
      scan = 0;
      line_start = 0;
      state = Head;
    }

  let feed t src off n =
    if n > 0 then begin
      if t.len + n > Bytes.length t.data then begin
        let cap = ref (Bytes.length t.data * 2) in
        while t.len + n > !cap do
          cap := !cap * 2
        done;
        let grown = Bytes.create !cap in
        Bytes.blit t.data 0 grown 0 t.len;
        t.data <- grown
      end;
      Bytes.blit src off t.data t.len n;
      t.len <- t.len + n
    end

  let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)

  let buffered t = t.len

  (* Drop the first [n] bytes and reset scanning state. *)
  let consume t n =
    if n > 0 then begin
      Bytes.blit t.data n t.data 0 (t.len - n);
      t.len <- t.len - n
    end;
    t.scan <- 0;
    t.line_start <- 0

  (* Shave leading (CR)LFs: clients may send blank lines between
     pipelined requests (RFC 9112 §2.2). *)
  let skip_leading_blanks t =
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      if !i < t.len && Bytes.get t.data !i = '\n' then incr i
      else if
        !i + 1 < t.len
        && Bytes.get t.data !i = '\r'
        && Bytes.get t.data (!i + 1) = '\n'
      then i := !i + 2
      else continue := false
    done;
    if !i > 0 then consume t !i

  let strip_cr s =
    let l = String.length s in
    if l > 0 && s.[l - 1] = '\r' then String.sub s 0 (l - 1) else s

  (* The head block [0, head_end) rendered as CR-stripped lines. *)
  let head_lines t head_end =
    String.sub (Bytes.unsafe_to_string t.data) 0 head_end
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           let l = strip_cr l in
           if l = "" then None else Some l)

  exception Found of int (* body offset *)
  exception Need (* terminator may straddle the buffer end: wait *)

  (* Scan for the empty line ending the head.  Returns the offset where
     the body starts, or None if more bytes are needed.  Enforces the
     per-line cap while scanning so an unbounded no-newline stream
     cannot grow the buffer forever.  When a '\n' sits at the end of
     the buffered bytes the terminator may be split across feeds, so
     the scan must park ON the '\n' (not past it) until more arrives. *)
  let find_head_end t =
    try
      while t.scan < t.len do
        (match Bytes.get t.data t.scan with
        | '\n' ->
            let nxt = t.scan + 1 in
            if nxt >= t.len then raise Need
            else if Bytes.get t.data nxt = '\n' then raise (Found (nxt + 1))
            else if Bytes.get t.data nxt = '\r' then
              if nxt + 1 >= t.len then raise Need
              else if Bytes.get t.data (nxt + 1) = '\n' then
                raise (Found (nxt + 2))
              else t.line_start <- nxt
            else t.line_start <- nxt
        | _ ->
            if t.scan - t.line_start > t.lim.max_line then
              raise (Err (Too_large "line")));
        t.scan <- t.scan + 1
      done;
      None
    with
    | Found off -> Some off
    | Need -> None

  let finish_request t ~meth ~target ~version ~headers ~need =
    let body = Bytes.sub_string t.data 0 need in
    consume t need;
    t.state <- Head;
    let path, query = split_target target in
    `Request { meth; target; path; query; headers; body; version }

  let rec next t : outcome =
    match t.state with
    | Broken e -> `Error e
    | Body { meth; target; version; headers; need } ->
        if t.len >= need then
          finish_request t ~meth ~target ~version ~headers ~need
        else `Await
    | Head -> (
        skip_leading_blanks t;
        match find_head_end t with
        | None -> `Await
        | Some body_off -> (
            match head_lines t body_off with
            | [] -> `Error (Malformed "bad request line")
            | req_line :: header_lines ->
                if List.length header_lines > t.lim.max_headers then begin
                  t.state <- Broken (Too_large "headers");
                  `Error (Too_large "headers")
                end
                else
                  let meth, target, version = parse_request_line req_line in
                  let headers = List.map parse_header_line header_lines in
                  let need =
                    content_length_of headers ~max_body:t.lim.max_body
                  in
                  consume t body_off;
                  t.state <- Body { meth; target; version; headers; need };
                  next t))

  let next t : outcome =
    match next t with
    | outcome -> outcome
    | exception Err e ->
        t.state <- Broken e;
        `Error e
end

(* ------------------------------------------------------------------ *)
(* Incremental response parser                                        *)
(* ------------------------------------------------------------------ *)

type response = {
  status : int;
  resp_headers : (string * string) list;
  body : string;
}

module Rparser = struct
  type state =
    | Head
    | Body of { status : int; resp_headers : (string * string) list; need : int }
    | Broken of error

  type t = {
    p : Parser.t; (* reuse the buffer/scan machinery *)
    mutable state : state;
  }

  type outcome = [ `Response of response | `Await | `Error of error ]

  let create ?(max_body = 16_777_216) () =
    { p = Parser.create ~max_line:8192 ~max_headers:256 ~max_body (); state = Head }

  let feed t src off n = Parser.feed t.p src off n
  let feed_string t s = Parser.feed_string t.p s
  let buffered t = Parser.buffered t.p

  let parse_status_line line =
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | _ :: code :: _ -> (
        match int_of_string_opt code with
        | Some c -> c
        | None -> raise (Err (Malformed "bad status code")))
    | _ -> raise (Err (Malformed "bad status line"))

  let rec next ~head t : outcome =
    match t.state with
    | Broken e -> `Error e
    | Body { status; resp_headers; need } ->
        if t.p.Parser.len >= need then begin
          let body = Bytes.sub_string t.p.Parser.data 0 need in
          Parser.consume t.p need;
          t.state <- Head;
          `Response { status; resp_headers; body }
        end
        else `Await
    | Head -> (
        Parser.skip_leading_blanks t.p;
        match Parser.find_head_end t.p with
        | None -> `Await
        | Some body_off -> (
            match Parser.head_lines t.p body_off with
            | [] -> `Error (Malformed "bad status line")
            | status_line :: header_lines ->
                if List.length header_lines > t.p.Parser.lim.Parser.max_headers
                then raise (Err (Too_large "headers"));
                let status = parse_status_line status_line in
                let resp_headers = List.map parse_header_line header_lines in
                (* A HEAD answer carries its entity's Content-Length but
                   no body (RFC 9112 §6.3). *)
                let need =
                  if head then 0
                  else
                    match List.assoc_opt "content-length" resp_headers with
                    | None -> raise (Err (Malformed "missing content-length"))
                    | Some v -> (
                        match int_of_string_opt (String.trim v) with
                        | Some n
                          when n >= 0 && n <= t.p.Parser.lim.Parser.max_body ->
                            n
                        | _ -> raise (Err (Malformed "bad content-length")))
                in
                Parser.consume t.p body_off;
                t.state <- Body { status; resp_headers; need };
                next ~head t))

  let next ?(head = false) t : outcome =
    match next ~head t with
    | outcome -> outcome
    | exception Err e ->
        t.state <- Broken e;
        `Error e
end

(* ------------------------------------------------------------------ *)
(* Response writing                                                    *)
(* ------------------------------------------------------------------ *)

let status_text = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let encode_response ?(headers = []) ?(head_only = false) ?(keep_alive = false)
    ~status ~body () =
  let buf = Buffer.create (256 + String.length body) in
  Printf.bprintf buf "HTTP/1.1 %d %s\r\n" status (status_text status);
  let has_ct =
    List.exists
      (fun (k, _) -> String.lowercase_ascii k = "content-type")
      headers
  in
  if not has_ct then
    Buffer.add_string buf "Content-Type: text/plain; charset=utf-8\r\n";
  List.iter (fun (k, v) -> Printf.bprintf buf "%s: %s\r\n" k v) headers;
  Printf.bprintf buf "Content-Length: %d\r\n" (String.length body);
  Buffer.add_string buf
    (if keep_alive then "Connection: keep-alive\r\n\r\n"
     else "Connection: close\r\n\r\n");
  if not head_only then Buffer.add_string buf body;
  Buffer.contents buf

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

(* ------------------------------------------------------------------ *)
(* Loopback clients                                                    *)
(* ------------------------------------------------------------------ *)

let encode_request ?(meth = "GET") ?(req_headers = []) ?body path =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n" meth path;
  List.iter (fun (k, v) -> Printf.bprintf buf "%s: %s\r\n" k v) req_headers;
  (match body with
  | Some b ->
      Printf.bprintf buf "Content-Length: %d\r\n\r\n" (String.length b);
      Buffer.add_string buf b
  | None -> Buffer.add_string buf "\r\n");
  Buffer.contents buf


module Client = struct
  type t = {
    fd : Unix.file_descr;
    rp : Rparser.t; (* bytes past one response wait here for the next *)
    buf : Bytes.t;
    mutable closed : bool;
  }

  let connect ?(timeout = 5.0) ~port () =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    try
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Ok { fd; rp = Rparser.create (); buf = Bytes.create 8192; closed = false }
    with Unix.Unix_error (e, fn, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end

  (* Feed socket reads to the parser until one response is complete;
     SO_RCVTIMEO turns a stalled peer into EAGAIN. *)
  let rec read_response t ~head =
    match Rparser.next ~head t.rp with
    | `Response r -> r
    | `Error e -> raise (Err e)
    | `Await ->
        (match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
        | 0 -> raise (Err Closed)
        | n -> Rparser.feed t.rp t.buf 0 n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            raise (Err Timeout)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            raise (Err Closed));
        read_response t ~head

  let request t ?(meth = "GET") ?(req_headers = []) ?body path =
    if t.closed then Error "connection closed"
    else
      try
        let s = encode_request ~meth ~req_headers ?body path in
        write_all t.fd s 0 (String.length s);
        Ok (read_response t ~head:(meth = "HEAD"))
      with
      | Err e ->
          close t;
          Error (error_to_string e)
      | Unix.Unix_error (e, fn, _) ->
          close t;
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
end

let request ?(timeout = 5.0) ?(meth = "GET") ?(req_headers = []) ?body ~port
    path =
  match Client.connect ~timeout ~port () with
  | Error _ as e -> e
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.request c ~meth
            ~req_headers:(("Connection", "close") :: req_headers)
            ?body path)
