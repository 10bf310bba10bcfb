module k42trace

go 1.24
