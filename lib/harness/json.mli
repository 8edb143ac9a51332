(** The flat JSON summaries the executables write ([simulate --json],
    [loadgen --json]): one object of already-rendered values. *)

(** [write path fields] writes [{"k": v, ...}] with [fields] in order. *)
val write : string -> (string * string) list -> unit

(** Value renderers. *)

val int : int -> string

val str : string -> string

(** Fields: [(key, rendered value)]; [o] renders [None] as [null]. *)

val i : string -> int -> string * string

val s : string -> string -> string * string

val o : string -> int option -> string * string
