type t = {
  id : string;
  title : string;
  paper_ref : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "== %s: %s ==\n" t.id t.title);
  Buffer.add_string buf (Printf.sprintf "   (%s)\n" t.paper_ref);
  Buffer.add_string buf (Bp_util.Tablefmt.render ~header:t.header t.rows);
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "   note: %s\n" n)) t.notes;
  Buffer.contents buf

let ms v = Printf.sprintf "%.1f" v
let mbps v = Printf.sprintf "%.1f" v
