type t = {
  name : string;
  suite : string;
  description : string;
  prog : Ifp_compiler.Ir.program Lazy.t;
}
