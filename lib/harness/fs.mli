(** Directory helpers shared by the harness, the checker's fault cases and
    the serve self-tests. *)

val mkdir_p : string -> unit
(** Creates a directory and any missing parents; an existing one is kept. *)

val rm_rf : string -> unit
(** Removes a file, or a directory with everything inside; a missing path
    is a no-op. *)

val with_temp_dir : prefix:string -> (string -> 'a) -> 'a
(** [with_temp_dir ~prefix f] creates a fresh directory
    [$TMPDIR/<prefix>-<pid>-<n>], passes it to [f] and removes it with
    everything inside once [f] returns or raises. *)
