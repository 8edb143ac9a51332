(** The flat JSON summaries the executables write ([simulate --json],
    [loadgen --json]): one object of already-rendered values. *)

(** [write path fields] writes [{"k": v, ...}] with [fields] in order. *)
val write : string -> (string * string) list -> unit

(** Value renderers. *)

val int : int -> string

val str : string -> string
