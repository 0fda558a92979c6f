type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?(align = []) ~header rows =
  let ncols = List.length header in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let all = header :: rows in
  let widths = Array.make ncols 0 in
  let record row =
    List.iteri
      (fun i cell ->
        if i < ncols then widths.(i) <- Int.max widths.(i) (String.length cell))
      row
  in
  List.iter record all;
  let align_of i = match List.nth_opt align i with Some a -> a | None -> Left in
  let line ch =
    let parts = Array.to_list (Array.map (fun w -> String.make (w + 2) ch) widths) in
    "+" ^ String.concat "+" parts ^ "+\n"
  in
  let draw_row row =
    let cells =
      List.mapi (fun i cell -> " " ^ pad (align_of i) widths.(i) cell ^ " ") row
    in
    "|" ^ String.concat "|" cells ^ "|\n"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line '-');
  Buffer.add_string buf (draw_row header);
  Buffer.add_string buf (line '=');
  List.iter (fun r -> Buffer.add_string buf (draw_row r)) rows;
  Buffer.add_string buf (line '-');
  Buffer.contents buf
