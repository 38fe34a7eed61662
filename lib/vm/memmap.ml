let globals_base = 0x0001_0000L
let globals_size = 16 * 1024 * 1024
let layout_region_base = 0x0200_0000L
let layout_region_size = 4 * 1024 * 1024
let global_table_base = 0x0300_0000L
let global_table_entries = 4096
let heap_base = 0x1000_0000L (* = 2^28, aligned for a 2^28-byte buddy arena *)
let heap_size_log2 = 28
let stack_top = 0x7000_0000L
let stack_size = 16 * 1024 * 1024
let max_call_depth = 1 lsl 16
