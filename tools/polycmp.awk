# Reports every call to OCaml's polymorphic comparison primitives in the
# assembly that `ocamlopt -S` emits, at the source line the compiler
# attributes it to (the nearest preceding .loc directive).  Calls to the
# Stdlib helpers that compare with polymorphic equality internally
# (List.mem, List.assoc, List.assoc_opt, List.mem_assoc, List.remove_assoc,
# Array.mem) are reported too: their call site shows no caml_equal, yet
# every element test is one.  So are the generic Hashtbl's lookups and
# updates (add, replace, find, find_opt, mem, remove), which hash and
# compare keys polymorphically.  A Hashtbl.Make instance calls functions
# of the same names with other stamps and compares through its typed
# [equal], so the first file must be PROBE.s, tools/hashtbl_probe.ml
# compiled with -S: the generic functions' symbols are the ones it calls.
#
#   awk -f tools/polycmp.awk PROBE.s FILE.s...
#
# Exits 1 if any call is found, 2 if the probe names no Hashtbl function.
# `make polycmp` runs it over the core libraries.

FILENAME == ARGV[1] {
  if (match($0, /camlStdlib__Hashtbl\.[a-z_]+_[0-9]+/) \
      && !(substr($0, RSTART, RLENGTH) in generic)) {
    generic[substr($0, RSTART, RLENGTH)] = 1
    ngeneric++
  }
  next
}

FNR == 1 { split("", files); here = FILENAME }

$1 == ".file" && NF >= 3 {
  name = $3
  gsub(/"/, "", name)
  files[$2] = name
}

$1 == ".loc" { here = files[$2] ":" $3 }

/caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)([^_a-zA-Z0-9]|$)/ {
  sym = $0
  sub(/^.*caml_/, "caml_", sym)
  sub(/[^_a-zA-Z0-9].*$/, "", sym)
  print here ": " sym
  found++
}

/camlStdlib__(List\.(mem|assoc|assoc_opt|mem_assoc|remove_assoc)|Array\.mem)_[0-9]+/ {
  sym = $0
  sub(/^.*camlStdlib__/, "", sym)
  sub(/_[0-9]+([^_a-zA-Z0-9].*)?$/, "", sym)
  print here ": " sym
  found++
}

match($0, /camlStdlib__Hashtbl\.[a-z_]+_[0-9]+/) && (substr($0, RSTART, RLENGTH) in generic) {
  sym = substr($0, RSTART, RLENGTH)
  sub(/^camlStdlib__/, "", sym)
  sub(/_[0-9]+$/, "", sym)
  print here ": " sym
  found++
}

END {
  if (!ngeneric) {
    print "polycmp: the probe file names no generic Hashtbl function"
    exit 2
  }
  if (found) {
    print found " polymorphic comparison call(s); compare with int-typed operators instead"
    exit 1
  }
  print "polycmp: no polymorphic comparison calls"
}
