# Reports every call to OCaml's polymorphic comparison primitives in the
# assembly that `ocamlopt -S` emits, at the source line the compiler
# attributes it to (the nearest preceding .loc directive).  Calls to the
# Stdlib helpers that compare with polymorphic equality internally
# (List.mem, List.assoc, List.assoc_opt, List.mem_assoc, List.remove_assoc,
# Array.mem) are reported too: their call site shows no caml_equal, yet
# every element test is one.
#
#   awk -f tools/polycmp.awk FILE.s...
#
# Exits 1 if any call is found.  `make polycmp` runs it over the core
# libraries.

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

END {
  if (found) {
    print found " polymorphic comparison call(s); compare with int-typed operators instead"
    exit 1
  }
  print "polycmp: no polymorphic comparison calls"
}
