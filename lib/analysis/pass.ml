type ctx = {
  files : Source.t list;
  records : Records.t;
  cg : Callgraph.t;
  may_yield : (string, unit) Hashtbl.t;
}

type t = { name : string; doc : string; run : ctx -> Finding.t list }
