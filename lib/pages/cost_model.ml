type t = {
  name : string;
  page_size : int;
  fork_base : float;
  fork_per_page : float;
  page_copy : float;
  absorb_base : float;
  kill_per_sibling : float;
  msg_latency : float;
  msg_per_byte : float;
  remote_spawn_base : float;
  remote_per_page : float;
}

(* Calibration for the 3B2: a 320K address space is 160 2K pages and the
   paper reports a 31 ms fork, so fork_base + 160 * fork_per_page = 0.031.
   The measured page-copy service rate is 326 pages/second. *)
let att_3b2 =
  {
    name = "AT&T 3B2/310";
    page_size = 2048;
    fork_base = 0.023;
    fork_per_page = 5e-5;
    page_copy = 1. /. 326.;
    absorb_base = 1e-3;
    kill_per_sibling = 5e-4;
    msg_latency = 5e-3;
    msg_per_byte = 2e-6;
    remote_spawn_base = 0.9;
    remote_per_page = 8e-3;
  }

(* HP 9000/350: 320K is 80 4K pages, fork measured at about 12 ms, copy
   service rate 1034 pages/second. *)
let hp_9000_350 =
  {
    name = "HP 9000/350";
    page_size = 4096;
    fork_base = 0.008;
    fork_per_page = 5e-5;
    page_copy = 1. /. 1034.;
    absorb_base = 4e-4;
    kill_per_sibling = 2e-4;
    msg_latency = 3e-3;
    msg_per_byte = 1e-6;
    remote_spawn_base = 0.75;
    remote_per_page = 5e-3;
  }

(* rfork() of a 70K (18 4K-page) process: 0.75 + 18 * 0.014 = 1.002 s of
   mechanism time; six protocol messages at 50 ms one-way latency account
   for the observed ~1.3 s mean (Smith and Ioannidis 1989). *)
let distributed_lan =
  {
    name = "Distributed (LAN rfork)";
    page_size = 4096;
    fork_base = 0.012;
    fork_per_page = 5e-5;
    page_copy = 1. /. 1034.;
    absorb_base = 4e-4;
    kill_per_sibling = 2e-4;
    msg_latency = 0.05;
    msg_per_byte = 1e-5;
    remote_spawn_base = 0.75;
    remote_per_page = 0.014;
  }

let modern =
  {
    name = "Modern x86-64";
    page_size = 4096;
    fork_base = 3e-4;
    fork_per_page = 2e-8;
    page_copy = 3e-7;
    absorb_base = 1e-6;
    kill_per_sibling = 1e-6;
    msg_latency = 2e-6;
    msg_per_byte = 1e-10;
    remote_spawn_base = 5e-3;
    remote_per_page = 1e-5;
  }

let uniform ?(page_size = 4096) () =
  {
    name = "Uniform (zero overhead)";
    page_size;
    fork_base = 0.;
    fork_per_page = 0.;
    page_copy = 0.;
    absorb_base = 0.;
    kill_per_sibling = 0.;
    msg_latency = 0.;
    msg_per_byte = 0.;
    remote_spawn_base = 0.;
    remote_per_page = 0.;
  }

let pages_for m ~bytes =
  if bytes <= 0 then 0 else ((bytes - 1) / m.page_size) + 1

let fork_cost m ~mapped_pages =
  m.fork_base +. (float_of_int mapped_pages *. m.fork_per_page)

let copy_cost m ~pages = float_of_int pages *. m.page_copy

let remote_spawn_cost m ~mapped_pages =
  m.remote_spawn_base +. (float_of_int mapped_pages *. m.remote_per_page)

let message_cost m ~bytes = m.msg_latency +. (float_of_int bytes *. m.msg_per_byte)
