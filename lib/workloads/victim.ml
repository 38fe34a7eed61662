let name = "pointer_maze"
let program () = Lazy.force Programs.pointer_maze
let temporal_name = "pointer_maze_freeing"
let temporal_program () = Lazy.force Programs.pointer_maze_freeing
