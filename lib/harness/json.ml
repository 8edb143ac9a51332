let write path fields =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "  %S: %s%s\n" k v
            (if i < List.length fields - 1 then "," else ""))
        fields;
      output_string oc "}\n")

let int = string_of_int

let str s = Printf.sprintf "%S" s
