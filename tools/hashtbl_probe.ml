(* One call to each generic Hashtbl operation that hashes and compares
   keys polymorphically.  `make polycmp` compiles this file with -S to
   learn those functions' assembly symbols: a Hashtbl.Make instance calls
   functions of the same names with other stamps, and those compare
   through the instance's typed [equal]. *)

let probe (h : (int, unit) Hashtbl.t) =
  Hashtbl.add h 0 ();
  Hashtbl.replace h 0 ();
  ignore (Hashtbl.find h 0);
  ignore (Hashtbl.find_opt h 0);
  ignore (Hashtbl.mem h 0);
  Hashtbl.remove h 0
