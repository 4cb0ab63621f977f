module massbft/bench

go 1.22

require massbft v0.0.0

replace massbft => ../
